// Named workers: `go worker(...)` resolves through the typed call
// graph, so the worker's declaration is held to the same hygiene rules
// as a go'd literal.
package wgfix

import "sync"

func SpawnNamed(n int) {
	var wg sync.WaitGroup
	results := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go namedWorker(&wg, results, i)
	}
	wg.Wait()
}

func namedWorker(wg *sync.WaitGroup, out []int, i int) {
	wg.Done() // want `"wg".Done is not deferred; an early return or panic would leak the WaitGroup`
	out[i] = i
}

func SpawnNamedClean(n int) {
	var wg sync.WaitGroup
	out := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go cleanWorker(&wg, out, i)
	}
	wg.Wait()
}

// cleanWorker defers Done: no findings.
func cleanWorker(wg *sync.WaitGroup, out []int, i int) {
	defer wg.Done()
	out[i] = i * 2
}

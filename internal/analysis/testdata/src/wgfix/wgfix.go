// Package wgfix exercises the wghygiene analyzer: WaitGroup call
// placement and deferred Done/close discipline.
package wgfix

import "sync"

func addInside(n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		go func() {
			wg.Add(1) // want `"wg".Add inside the spawned goroutine races Wait`
			defer wg.Done()
		}()
	}
	wg.Wait()
}

func doneNotDeferred(jobs chan int) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		for j := range jobs {
			if j < 0 {
				return
			}
			_ = j
		}
		wg.Done() // want `"wg".Done is not deferred`
	}()
	wg.Wait()
}

func closeNotDeferred(in <-chan string, jobs chan<- []string) {
	go func() {
		var buf []string
		for h := range in {
			if h == "" {
				return
			}
			buf = append(buf, h)
		}
		close(jobs) // want `close\(jobs\) is not deferred but the goroutine has return paths`
	}()
}

// The blessed shard pattern from extract/batch.go and core/matrix.go:
// Add before go, deferred Done — silent.
func shardClean(hosts []string, workers int) []int {
	out := make([]int, len(hosts))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				out[i] = len(hosts[i])
			}
		}()
	}
	for i := range hosts {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out
}

func annotated(hosts []string) []int {
	out := make([]int, len(hosts))
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		for i, h := range hosts {
			out[i] = len(h)
		}
		//hoiho:wg-ok the loop above has no return path and cannot panic
		wg.Done()
	}()
	wg.Wait()
	return out
}

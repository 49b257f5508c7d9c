package extract

import (
	"context"
	"strconv"
	"sync"
	"sync/atomic"

	"hoiho/internal/faultinject"
)

// batchChunk is the unit of work sharding: small enough to balance skewed
// per-hostname costs across workers, large enough to amortize the
// scheduling atomics.
const batchChunk = 512

// ExtractBatch applies the corpus to every hostname concurrently and
// returns one Result per input, aligned with hosts. Workers claim
// fixed-size chunks of the index space, so the output is deterministic
// and input-ordered regardless of scheduling. Cancellation is checked
// between chunks: on cancellation the workers stop, the results
// processed so far are returned alongside ctx.Err(), and the untouched
// tail is zero-valued (OK == false).
func (c *Corpus) ExtractBatch(ctx context.Context, hosts []string) ([]Result, error) {
	return c.ExtractBatchInto(ctx, nil, hosts)
}

// ExtractBatchInto is ExtractBatch writing into dst's storage: it
// returns dst resliced to len(hosts), reallocated only when dst's
// capacity is short, with every slot overwritten. A caller that keeps
// the returned slice for its next batch extracts without allocating on
// the serial path (at most one chunk, or one worker).
func (c *Corpus) ExtractBatchInto(ctx context.Context, dst []Result, hosts []string) ([]Result, error) {
	if cap(dst) < len(hosts) {
		dst = make([]Result, len(hosts)) //hoiho:hotalloc one result slice when the caller's is short, amortized over len(hosts) items; TestBoundBatchIntoAllocs pins the reused slice at zero
	} else {
		clear(dst[:len(hosts)])
	}
	out := dst[:len(hosts)]
	workers := c.workerCount(len(hosts))
	nChunks := (len(hosts) + batchChunk - 1) / batchChunk
	if workers <= 1 || len(hosts) <= batchChunk {
		for ci := 0; ci < nChunks; ci++ {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			if faultinject.Active() {
				faultinject.Fire(ctx, faultinject.StageBatchChunk, strconv.Itoa(ci))
			}
			c.extractChunk(out, hosts, ci)
		}
		return out, nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//hoiho:hotalloc one goroutine closure per worker per batch call, amortized over the whole batch
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				ci := int(next.Add(1)) - 1
				if ci >= nChunks {
					return
				}
				if faultinject.Active() {
					faultinject.Fire(ctx, faultinject.StageBatchChunk, strconv.Itoa(ci))
				}
				c.extractChunk(out, hosts, ci)
			}
		}()
	}
	wg.Wait()
	return out, ctx.Err()
}

// extractChunk fills out's slots for chunk ci of hosts. The slots must
// be zeroed: a miss leaves its slot untouched.
func (c *Corpus) extractChunk(out []Result, hosts []string, ci int) {
	lo := ci * batchChunk
	hi := min(lo+batchChunk, len(hosts))
	for i := lo; i < hi; i++ {
		if c.extractInto(&out[i], hosts[i]) {
			out[i].Hostname = hosts[i]
		}
	}
}

// streamChunk sizes the micro-batches ExtractStream hands to workers.
const streamChunk = 256

// ExtractStream reads hostnames from in until it is closed, extracts
// concurrently, and delivers one Result per input on the returned
// channel, in input order (a sequence-numbered reorder stage restores
// ordering after the parallel stage). The returned channel is closed
// after the last result.
//
// Cancelling ctx is the shutdown path: every internal send and receive
// also waits on ctx.Done, so the chunker, workers, and reorderer all
// drain and exit — no goroutine leaks — and the output channel closes
// promptly. A consumer that stops reading early MUST cancel ctx (and
// may then abandon the channel); draining the channel fully needs no
// cancellation.
func (c *Corpus) ExtractStream(ctx context.Context, in <-chan string) <-chan Result {
	out := make(chan Result, streamChunk)
	workers := c.workerCount(streamChunk * 4)

	type job struct {
		seq   int
		hosts []string
	}
	type done struct {
		seq     int
		results []Result
	}
	jobs := make(chan job, workers)
	dones := make(chan done, workers)

	// Chunker: group the stream into sequence-numbered micro-batches.
	go func() {
		defer close(jobs)
		seq := 0
		buf := make([]string, 0, streamChunk)
		flush := func() bool {
			if len(buf) == 0 {
				return true
			}
			select {
			case jobs <- job{seq: seq, hosts: buf}:
			case <-ctx.Done():
				return false
			}
			seq++
			buf = make([]string, 0, streamChunk)
			return true
		}
		for {
			select {
			case h, ok := <-in:
				if !ok {
					flush()
					return
				}
				buf = append(buf, h)
				if len(buf) == streamChunk && !flush() {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	}()

	// Workers: extract each chunk independently. The stream has no error
	// path, so injected faults here are stalls (exercising cancellation
	// latency in the chaos tests); Fire's error return is discarded.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if faultinject.Active() {
					faultinject.Fire(ctx, faultinject.StageStreamChunk, strconv.Itoa(j.seq))
				}
				rs := make([]Result, len(j.hosts))
				for i, h := range j.hosts {
					if c.extractInto(&rs[i], h) {
						rs[i].Hostname = h
					}
				}
				select {
				case dones <- done{seq: j.seq, results: rs}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(dones)
	}()

	// Reorderer: emit chunks strictly by sequence number.
	go func() {
		defer close(out)
		pending := make(map[int][]Result)
		next := 0
		for d := range dones {
			pending[d.seq] = d.results
			for {
				rs, ok := pending[next]
				if !ok {
					break
				}
				delete(pending, next)
				next++
				for _, r := range rs {
					select {
					case out <- r:
					case <-ctx.Done():
						return
					}
				}
			}
		}
	}()
	return out
}

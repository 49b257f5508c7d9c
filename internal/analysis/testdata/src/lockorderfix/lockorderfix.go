// Package lockorderfix exercises lockorder: acquisition-order
// inversions detected across method boundaries.
package lockorderfix

import "sync"

type server struct {
	mu    sync.Mutex
	state sync.Mutex
}

// lockAB establishes the order mu -> state.
func (s *server) lockAB() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state.Lock() // want `lock order inversion: acquires "server.state" while holding "server.mu"`
	s.state.Unlock()
}

// lockBA acquires the same two mutexes in the opposite order — the
// classic deadlock under contention, invisible to any single-function
// check.
func (s *server) lockBA() {
	s.state.Lock()
	defer s.state.Unlock()
	s.mu.Lock() // want `lock order inversion: acquires "server.mu" while holding "server.state"`
	s.mu.Unlock()
}

type filePair struct {
	a sync.Mutex
	b sync.Mutex
}

// first and second take a before b consistently: no inversion.
func (p *filePair) first() {
	p.a.Lock()
	defer p.a.Unlock()
	p.b.Lock()
	p.b.Unlock()
}

func (p *filePair) second() {
	p.a.Lock()
	p.b.Lock()
	p.b.Unlock()
	p.a.Unlock()
}

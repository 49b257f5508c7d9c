package core

import "sync"

// internShards fixes the shard count of an Interner. Sharding keeps the
// read lock uncontended when many extractor goroutines intern captured
// digit strings concurrently; 16 shards is plenty for the worker counts
// the batch paths use.
const internShards = 16

// Interner is a concurrency-safe string intern table. Intern returns a
// stable string equal to its argument, allocating only the first time a
// given value is seen; later calls return the retained copy without
// allocating. The returned strings do not alias the input and are safe
// to share across goroutines.
//
// Keys are the raw byte content: "007" and "7" intern separately even
// though they parse to the same ASN, preserving the exact captured
// digit string.
type Interner struct {
	shards [internShards]internShard
}

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

// NewInterner returns an empty intern table.
func NewInterner() *Interner {
	in := &Interner{}
	for i := range in.shards {
		in.shards[i].m = make(map[string]string)
	}
	return in
}

// internHash is FNV-1a, used only to pick a shard.
func internHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// Intern returns the canonical string for b, copying b only on first
// sight. The fast path (value already interned) performs no allocation:
// the map probe with a string(b) conversion is recognized by the
// compiler and does not copy.
func (in *Interner) Intern(b []byte) string {
	sh := &in.shards[internHash(b)&(internShards-1)]
	sh.mu.RLock()
	s, ok := sh.m[string(b)]
	sh.mu.RUnlock()
	if ok {
		return s
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.m[string(b)]; ok {
		return s
	}
	s = string(b)
	sh.m[s] = s
	return s
}

// InternString is Intern for values already held as strings.
func (in *Interner) InternString(s string) string {
	sh := &in.shards[internHashString(s)&(internShards-1)]
	sh.mu.RLock()
	got, ok := sh.m[s]
	sh.mu.RUnlock()
	if ok {
		return got
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if got, ok := sh.m[s]; ok {
		return got
	}
	sh.m[s] = s
	return s
}

func internHashString(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Len reports how many distinct strings are interned, for tests and
// introspection.
func (in *Interner) Len() int {
	n := 0
	for i := range in.shards {
		sh := &in.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

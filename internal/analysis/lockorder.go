package analysis

import (
	"sort"
)

// lockorder guards the serve-layer lock discipline: when one function
// acquires mutex B while holding mutex A, and another acquires A while
// holding B, the two can deadlock under contention. The analyzer
// summarizes every function's lock operations (lockSummary), derives
// held-while-acquiring pairs, and reports every inversion. Mutexes are
// identified structurally (Type.field / pkg.var), so the reload path
// taking reloadMu then drainMu in one method and the reverse in another
// is caught across function boundaries. It runs only over
// Config.LockPkgs.
//
// A field mixing sync/atomic calls with plain access is left to -race:
// the module uses typed atomics only, and every counter where the mix
// was injected fails a -race test that reads status under load.
var lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "consistent mutex acquisition order",
	Verb: "lockorder-ok",
	Run:  runLockOrder,
}

type lockPair struct {
	first, second string
}

func runLockOrder(p *Program) []Diagnostic {
	g := p.CallGraph()
	var out []Diagnostic
	// pairs maps (held, acquired) to the acquisition that first
	// established the order.
	pairs := make(map[lockPair]Diagnostic)
	for _, n := range g.Nodes {
		if n.Pkg == nil || !p.Config.lock(n.Pkg.Path) {
			continue
		}
		ops := lockSummary(n.Pkg, n)
		var held []string
		for _, op := range ops {
			if op.Unlock {
				if op.Defer {
					continue // releases at return; stays held for ordering
				}
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == op.Key {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
				continue
			}
			for _, h := range held {
				if h == op.Key {
					continue
				}
				pr := lockPair{first: h, second: op.Key}
				if _, ok := pairs[pr]; !ok {
					pairs[pr] = Diagnostic{
						Pos:     p.Fset.Position(op.Pos),
						Check:   "lockorder",
						Message: "acquires " + quote(op.Key) + " while holding " + quote(h),
					}
				}
			}
			held = append(held, op.Key)
		}
	}
	var keys []lockPair
	for pr := range pairs {
		keys = append(keys, pr)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].first != keys[j].first {
			return keys[i].first < keys[j].first
		}
		return keys[i].second < keys[j].second
	})
	reported := make(map[lockPair]bool)
	for _, pr := range keys {
		inv := lockPair{first: pr.second, second: pr.first}
		other, ok := pairs[inv]
		if !ok || reported[pr] || reported[inv] {
			continue
		}
		reported[pr], reported[inv] = true, true
		d := pairs[pr]
		d.Message = "lock order inversion: " + d.Message + ", but " + other.Pos.String() + " acquires " + quote(inv.second) + " while holding " + quote(inv.first) + "; pick one order"
		d.Suggest = "//hoiho:lockorder-ok <why these two orders cannot deadlock>"
		out = append(out, d)
		o := other
		o.Message = "lock order inversion: " + o.Message + ", but " + pairs[pr].Pos.String() + " acquires " + quote(pr.second) + " while holding " + quote(pr.first) + "; pick one order"
		o.Suggest = "//hoiho:lockorder-ok <why these two orders cannot deadlock>"
		out = append(out, o)
	}
	return out
}

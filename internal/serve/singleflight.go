package serve

import "sync"

// flightGroup deduplicates concurrent calls with the same key: the first
// caller (the leader) runs fn, every caller that arrives while it is in
// flight blocks and receives the leader's result. This is the mechanism that
// makes N parallel identical requests cost one parse / one detection run.
//
// A minimal reimplementation of golang.org/x/sync/singleflight (the module
// has no external dependencies); no Forget/DoChan — the serving layer only
// needs the blocking form.
type flightGroup[V any] struct {
	mu sync.Mutex
	m  map[string]*flightCall[V]
}

type flightCall[V any] struct {
	wg  sync.WaitGroup
	val V
	err error
}

// Do executes fn once per concurrent key, returning its result and whether
// this caller shared a leader's execution rather than running fn itself.
func (g *flightGroup[V]) Do(key string, fn func() (V, error)) (val V, shared bool, err error) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*flightCall[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, true, c.err
	}
	c := new(flightCall[V])
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()
	c.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return c.val, false, c.err
}

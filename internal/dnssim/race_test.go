package dnssim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/pdns"
)

// TestResolverConcurrent exercises every mutable path of the resolver from
// many goroutines at once — cold lookup-cache misses, hot hits, deletion
// writes and deletion checks interleaved — so `go test -race` covers the
// exact access pattern of the parallel emission workers. Each goroutine owns
// its RNG, mirroring the parallel emission workers.
func TestResolverConcurrent(t *testing.T) {
	r := NewResolver()
	names := make([]string, 64)
	for i := range names {
		names[i] = fmt.Sprintf("1234567890-abcdefgh%02d-ap-guangzhou.scf.tencentcs.com", i)
	}

	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				fqdn := names[(g+i)%len(names)]
				if i%50 == 25 && g%4 == 0 {
					r.MarkDeleted(fqdn)
				}
				if _, err := r.Resolve(fqdn, rng); err != nil && !errors.Is(err, ErrNXDomain) {
					t.Errorf("Resolve(%q): %v", fqdn, err)
					return
				}
				if _, err := r.ResolveRType(fqdn, pdns.TypeA, rng); err != nil && !errors.Is(err, ErrNXDomain) {
					t.Errorf("ResolveRType(%q): %v", fqdn, err)
					return
				}
				r.Deleted(fqdn)
			}
		}(g)
	}
	wg.Wait()
}

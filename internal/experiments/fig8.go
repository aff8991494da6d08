package experiments

import (
	"fmt"
	"strings"
	"sync"

	"smvx/internal/apps/nginx"
	"smvx/internal/boot"
	"smvx/internal/sim/machine"
)

// Fig8Row is one candidate protected root in Figure 8.
type Fig8Row struct {
	// Fn is the candidate root function.
	Fn string
	// LibcCalls is the number of PLT calls issued within the function's
	// dynamic extent over the whole workload.
	LibcCalls uint64
	// Tainted marks the functions the taint analysis flags (the purple
	// triangles of Figure 8).
	Tainted bool
}

// Fig8Result reproduces Figure 8: the number of libc calls that fall inside
// the protected region as the protected root function shrinks from main()
// toward the tainted leaf functions.
type Fig8Result struct {
	// Requests is the workload size.
	Requests int
	// Rows are ordered from the outermost root to the innermost.
	Rows []Fig8Row
}

// Figure8 measures, for each candidate root in nginx's call graph, how many
// libc (PLT) calls execute within that root's dynamic extent under an
// ApacheBench workload. The paper runs 100k requests and observes the count
// fall from ~8.8M under main() to ~100k under the tainted functions; the
// monotone decrease is the reproduced shape.
func Figure8(requests int) (*Fig8Result, error) {
	var mu sync.Mutex
	counts := make(map[string]uint64, len(nginx.Fig8Roots))
	// The observer is attached before the worker's first instruction, so
	// main's row counts every libc call the process makes.
	r, err := nginxApp.serve(Vanilla, "", requests, func(env *boot.Env) {
		env.Machine.SetLibcObserver(func(t *machine.Thread, name string) {
			mu.Lock()
			defer mu.Unlock()
			for _, root := range nginx.Fig8Roots {
				if root == "main" || t.InFunction(root) {
					counts[root]++
				}
			}
		})
	})
	if err != nil {
		return nil, fmt.Errorf("fig8: %w", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if total := r.Env.LibC.TotalCalls(); counts["main"] != total {
		return nil, fmt.Errorf("fig8: main's extent counted %d libc calls, the process made %d", counts["main"], total)
	}

	tainted := make(map[string]bool, len(nginx.TaintedRoots))
	for _, fn := range nginx.TaintedRoots {
		tainted[fn] = true
	}
	res := &Fig8Result{Requests: requests}
	for _, root := range nginx.Fig8Roots {
		res.Rows = append(res.Rows, Fig8Row{Fn: root, LibcCalls: counts[root], Tainted: tainted[root]})
	}
	return res, nil
}

// String renders the figure as a table.
func (r *Fig8Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 8: libc calls within protected region (%d requests)\n", r.Requests)
	for _, row := range r.Rows {
		mark := " "
		if row.Tainted {
			mark = "▲" // the paper's purple triangles: tainted functions
		}
		fmt.Fprintf(&b, "%s %-36s %12d\n", mark, row.Fn, row.LibcCalls)
	}
	return b.String()
}

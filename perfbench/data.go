package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"sepdl/internal/datagen"
)

// Workload sizes. They are fixed here rather than taken as flags so that
// every run of one workload measures the same amount of work; only the
// seed changes the generated inputs.
const (
	// buysPeople and buysDensity are datagen.RandomBuysDB's n and density.
	// At density 2.5 nearly every person reaches the friend graph's giant
	// component, whose size then varies by about 2% between seeds. At
	// lower densities about half the people reach almost nobody, so the
	// median read falls between two modes and jumps from seed to seed.
	buysPeople  = 300
	buysDensity = 2.5

	sgGenerations = 12  // generations of the same-generation genealogy
	sgWidth       = 100 // people per generation
	keySequence   = 4096
)

// sgProgram is the same-generation recursion. It is not separable, so the
// engine's Auto strategy answers it with Magic Sets.
const sgProgram = `sg(X, Y) :- sibling(X, Y).
sg(X, Y) :- parent(U, X) & sg(U, V) & parent(V, Y).
`

// dataset is one workload's generated input: the program and facts the
// engine receives, the seeded sequence of selection constants the readers
// cycle through, and the answers the oracle computed for each of them.
type dataset struct {
	program string
	facts   string
	// query renders the selection for one constant, e.g. "buys(p17, Y)?".
	query func(k string) string
	form  string // the query form with a placeholder constant, for Prepare
	keys  []string
	want  map[string][]string
	sizes map[string]int
}

// buysData generates the Example 1.2 instance of datagen.RandomBuysDB and
// a seeded sequence of selections buys(p_k, Y)?. The oracle reads the edge
// lists back from the generated fact text, so it shares no code with the
// engine's evaluation.
func buysData(seed int64) (*dataset, error) {
	db := datagen.RandomBuysDB(buysPeople, buysDensity, seed)
	var b strings.Builder
	if err := db.WriteFacts(&b); err != nil {
		return nil, fmt.Errorf("rendering facts: %w", err)
	}
	facts := b.String()
	g, err := parseEdges(facts)
	if err != nil {
		return nil, err
	}
	people := make([]string, buysPeople)
	want := make(map[string][]string, buysPeople)
	for i := range people {
		people[i] = datagen.Name("p", i+1)
		want[people[i]] = buysOracle(g, people[i])
	}
	return &dataset{
		program: datagen.Example12Program().String(),
		facts:   facts,
		query:   func(k string) string { return "buys(" + k + ", Y)?" },
		form:    "buys(p1, Y)?",
		keys:    deal(people, seed),
		want:    want,
		sizes:   map[string]int{"people": buysPeople, "facts": db.NumTuples()},
	}, nil
}

// deal returns keySequence selection constants: seeded shuffles of pool,
// one after another. Every stretch of len(pool) reads then queries each
// constant once, so two runs of one seed read the same mix, and the mix
// of a run does not drift with how many reads fit in its time.
func deal(pool []string, seed int64) []string {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	keys := make([]string, 0, keySequence+len(pool))
	for len(keys) < keySequence {
		for _, i := range rng.Perm(len(pool)) {
			keys = append(keys, pool[i])
		}
	}
	return keys[:keySequence]
}

// edges maps predicate → source constant → target constants.
type edges map[string]map[string][]string

// parseEdges reads binary facts "pred(a, b)." one per line.
func parseEdges(facts string) (edges, error) {
	g := edges{}
	for _, line := range strings.Split(facts, "\n") {
		if line == "" {
			continue
		}
		open := strings.IndexByte(line, '(')
		if open < 0 {
			return nil, fmt.Errorf("oracle: unexpected fact line %q", line)
		}
		args := strings.Split(strings.TrimSuffix(line[open+1:], ")."), ", ")
		if len(args) != 2 {
			return nil, fmt.Errorf("oracle: unexpected fact line %q", line)
		}
		pred := line[:open]
		if g[pred] == nil {
			g[pred] = map[string][]string{}
		}
		g[pred][args[0]] = append(g[pred][args[0]], args[1])
	}
	return g, nil
}

// reach returns every node reachable from starts along adj, starts included.
func reach(adj map[string][]string, starts []string) map[string]bool {
	seen := make(map[string]bool, len(starts))
	stack := append([]string(nil), starts...)
	for _, s := range starts {
		seen[s] = true
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return seen
}

// buysOracle answers buys(p, Y)? of Example 1.2 by plain reachability: the
// people p reaches along friend*, the goods they are perfectFor, then
// everything cheaper than those along reverse cheaper* (cheaper(Y, W)
// derives buys(X, Y) from buys(X, W)).
func buysOracle(g edges, p string) []string {
	people := reach(g["friend"], []string{p})
	var goods []string
	for q := range people {
		goods = append(goods, g["perfectFor"][q]...)
	}
	cheaperThan := map[string][]string{}
	for y, ws := range g["cheaper"] {
		for _, w := range ws {
			cheaperThan[w] = append(cheaperThan[w], y)
		}
	}
	return sortedKeys(reach(cheaperThan, goods))
}

// sgData generates the genealogy: sgGenerations generations of sgWidth
// people, each child with two distinct random parents in the generation
// before. Generation 0 holds sgWidth symmetric sibling pairs on a seeded
// ring, so everyone there has two siblings: with random pairs, who has
// none varies with the seed, and with it the size of every answer. The
// selections sg(p_k, Y)? are drawn from the lower generations, where every
// query climbs several generations before it reaches a sibling pair.
func sgData(seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed))
	person := func(gen, i int) string { return datagen.Name("p", gen*sgWidth+i) }
	parents := map[string][]string{}  // child → parents
	children := map[string][]string{} // parent → children
	sibling := map[string][]string{}
	var b strings.Builder
	nfacts := 0
	ring := rng.Perm(sgWidth)
	for i := range ring {
		x, y := person(0, ring[i]), person(0, ring[(i+1)%sgWidth])
		sibling[x] = append(sibling[x], y)
		sibling[y] = append(sibling[y], x)
		fmt.Fprintf(&b, "sibling(%s, %s).\nsibling(%s, %s).\n", x, y, y, x)
		nfacts += 2
	}
	for gen := 1; gen < sgGenerations; gen++ {
		for i := 0; i < sgWidth; i++ {
			c := person(gen, i)
			u, v := rng.Intn(sgWidth), rng.Intn(sgWidth-1)
			if v >= u {
				v++
			}
			for _, p := range []string{person(gen-1, u), person(gen-1, v)} {
				parents[c] = append(parents[c], p)
				children[p] = append(children[p], c)
				fmt.Fprintf(&b, "parent(%s, %s).\n", p, c)
				nfacts++
			}
		}
	}
	// A query's cost grows with its generation, so latency quantiles sit on
	// per-generation plateaus. Querying an odd number of generations puts
	// the median in the middle of one plateau rather than on the step
	// between two, where it would jump from seed to seed.
	const queried = 5
	var pool []string
	want := map[string][]string{}
	for gen := sgGenerations - queried; gen < sgGenerations; gen++ {
		for i := 0; i < sgWidth; i++ {
			k := person(gen, i)
			pool = append(pool, k)
			want[k] = sgOracle(parents, children, sibling, k)
		}
	}
	return &dataset{
		program: sgProgram,
		facts:   b.String(),
		query:   func(k string) string { return "sg(" + k + ", Y)?" },
		form:    "sg(p1, Y)?",
		keys:    deal(pool, seed),
		want:    want,
		sizes:   map[string]int{"generations": sgGenerations, "width": sgWidth, "facts": nfacts},
	}
}

// sgOracle answers sg(x, Y)? by a direct walk: for every d, the ancestors
// of x d generations up, their siblings, and those siblings' descendants d
// generations down.
func sgOracle(parents, children, sibling map[string][]string, x string) []string {
	out := map[string]bool{}
	level := map[string]bool{x: true}
	for d := 0; len(level) > 0; d++ {
		down := map[string]bool{}
		for u := range level {
			for _, v := range sibling[u] {
				down[v] = true
			}
		}
		for i := 0; i < d; i++ {
			next := map[string]bool{}
			for v := range down {
				for _, c := range children[v] {
					next[c] = true
				}
			}
			down = next
		}
		for y := range down {
			out[y] = true
		}
		up := map[string]bool{}
		for u := range level {
			for _, p := range parents[u] {
				up[p] = true
			}
		}
		level = up
	}
	return sortedKeys(out)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkRows compares a one-column answer with the oracle's. It returns ""
// when they agree and a short description of the first difference
// otherwise.
func checkRows(rows [][]string, want []string) string {
	if len(rows) != len(want) {
		return fmt.Sprintf("%d answers, oracle has %d", len(rows), len(want))
	}
	got := make([]string, len(rows))
	for i, r := range rows {
		if len(r) != 1 {
			return fmt.Sprintf("answer row %v has %d columns, want 1", r, len(r))
		}
		got[i] = r[0]
	}
	sort.Strings(got)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("answer %q where the oracle has %q", got[i], want[i])
		}
	}
	return ""
}

package bench

import (
	"fmt"
	"math/rand"
	"time"

	"softdb/internal/engine"
	"softdb/internal/types"
	"softdb/internal/workload"
)

// c1Shapes are the two statement shapes of the point_lookup traffic mix:
// a primary-key probe and a secondary-index probe whose plan carries the
// ship_window prune interval derived from the literal.
var c1Shapes = []struct {
	Name string
	Text func(rows, i int) string
}{
	{"id", func(rows, i int) string { return fmt.Sprintf("SELECT * FROM purchase WHERE id = %d", i*7919%rows) }},
	{"order_date", func(rows, i int) string {
		return "SELECT * FROM purchase WHERE order_date = DATE '" + types.NewDate(int64(10592+i*31%(rows/4))).String() + "'"
	}},
}

// C1PlanTemplate measures what a SELECT pays to get a plan, per shape: a
// cold plan (plan cache off: parse, build, rewrite, optimize), a repeat of
// one text, and a stream of fresh literals served by rebinding the shape's
// template — which before shape keying was a cold plan plus a cache store
// for every new literal. A final row replays the point_lookup mix (80% id
// probes on Zipf-ranked keys, 20% uniform dates) and reports what the cache
// holds afterwards.
func C1PlanTemplate(rows, stmts int) (*Report, error) {
	rep := &Report{
		ID:     "C1",
		Title:  "shape-keyed plan templates: cold plan vs text repeat vs template rebind",
		Claim:  "§4.1 compiled plans keyed by statement shape: literal-inlining point traffic is two shapes, so it needs two plans, and a statement of a known shape costs a rebind, not a compile",
		Header: []string{"shape", "cold plan µs", "text repeat µs", "template rebind µs", "cold/rebind", "plans cached", "template hits", "literal-bound", "parses", "compiles"},
	}
	open := func(disable bool) (*engine.Database, error) {
		db := engine.Open()
		db.DisablePlanCache = disable
		return db, workload.LoadPurchase(db, workload.PurchaseConfig{N: rows, Seed: 1, ShipWindowMode: "soft", IndexOrderDate: true})
	}
	cold, err := open(true)
	if err != nil {
		return nil, err
	}
	cached, err := open(false)
	if err != nil {
		return nil, err
	}
	run := func(db *engine.Database, text func(i int) string) (float64, error) {
		if _, err := db.Exec(text(0)); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 1; i <= stmts; i++ {
			if _, err := db.Exec(text(i)); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / float64(stmts), nil
	}
	for _, sh := range c1Shapes {
		fresh := func(i int) string { return sh.Text(rows, i) }
		same := func(int) string { return sh.Text(rows, 0) }
		coldUs, err := run(cold, fresh)
		if err != nil {
			return nil, err
		}
		repeatUs, err := run(cached, same)
		if err != nil {
			return nil, err
		}
		before := cached.CacheStats()
		rebindUs, err := run(cached, fresh)
		if err != nil {
			return nil, err
		}
		cs := cached.CacheStats()
		rep.AddRow(sh.Name, coldUs, repeatUs, rebindUs, fmt.Sprintf("%.1f", coldUs/rebindUs),
			cached.CachedPlanCount(), cs.TemplateHits-before.TemplateHits, cs.LiteralBound-before.LiteralBound,
			cs.Parses-before.Parses, cs.Compiles-before.Compiles)
	}

	// The traffic mix, on a fresh cache.
	mix, err := open(false)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(r, 1.1, 1, uint64(rows-1))
	start := time.Now()
	for i := 0; i < stmts; i++ {
		text := c1Shapes[0].Text(rows, int(zipf.Uint64()))
		if r.Intn(5) == 0 {
			text = c1Shapes[1].Text(rows, r.Intn(rows/4))
		}
		if _, err := mix.Exec(text); err != nil {
			return nil, err
		}
	}
	mixUs := float64(time.Since(start).Microseconds()) / float64(stmts)
	cs := mix.CacheStats()
	rep.AddRow("80/20 mix", "-", "-", mixUs, "-", mix.CachedPlanCount(), cs.TemplateHits, cs.LiteralBound, cs.Parses, cs.Compiles)
	rep.Notef("%d-row purchase, %d statements per cell; parses and compiles are those of the rebind column (build, rewrite and optimize passes, a template's one verification included); mix hit ratio %.4f (%d misses)", rows, stmts,
		float64(cs.Hits)/float64(cs.Hits+cs.Misses), cs.Misses)
	return rep, nil
}

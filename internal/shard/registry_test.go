package shard

import (
	"testing"

	"softdb/internal/expr"
	"softdb/internal/types"
)

func iv(lo, hi int64) expr.Interval {
	return expr.Between(types.NewInt(lo), types.NewInt(hi), true, true)
}

func TestRegistryPruneRange(t *testing.T) {
	r := NewRegistry()
	r.Install(Entry{Shard: 1, Table: "t", Column: "k", Kind: KindRange, Iv: iv(100, 200), Constraint: "c1", Active: true})
	// Predicate fully below the shard's range: prune.
	if _, _, ok := r.Prune(1, "t", map[string]expr.Interval{"k": iv(0, 50)}); !ok {
		t.Fatal("disjoint predicate should prune")
	}
	// Overlapping predicate: no prune.
	if _, _, ok := r.Prune(1, "t", map[string]expr.Interval{"k": iv(150, 300)}); ok {
		t.Fatal("overlapping predicate must not prune")
	}
	// Other shard, other table, other column: no prune.
	if _, _, ok := r.Prune(0, "t", map[string]expr.Interval{"k": iv(0, 50)}); ok {
		t.Fatal("entry is shard-local")
	}
	if _, _, ok := r.Prune(1, "u", map[string]expr.Interval{"k": iv(0, 50)}); ok {
		t.Fatal("entry is table-local")
	}
	if _, _, ok := r.Prune(1, "t", map[string]expr.Interval{"x": iv(0, 50)}); ok {
		t.Fatal("entry is column-local")
	}
}

func TestRegistryPruneHole(t *testing.T) {
	r := NewRegistry()
	r.Install(Entry{Shard: 0, Table: "t", Column: "k", Kind: KindHole, Iv: iv(100, 200), Constraint: "h1", Active: true})
	if _, reason, ok := r.Prune(0, "t", map[string]expr.Interval{"k": iv(120, 180)}); !ok {
		t.Fatal("predicate inside the hole should prune")
	} else if reason == "" {
		t.Fatal("prune must explain itself")
	}
	if _, _, ok := r.Prune(0, "t", map[string]expr.Interval{"k": iv(50, 150)}); ok {
		t.Fatal("predicate straddling the hole must not prune")
	}
	if _, _, ok := r.Prune(0, "t", map[string]expr.Interval{"k": expr.Unbounded()}); ok {
		t.Fatal("unbounded predicate must never be 'inside' a hole")
	}
}

func TestRegistryPruneEmptyShard(t *testing.T) {
	r := NewRegistry()
	r.Install(Entry{Shard: 2, Table: "t", Column: "k", Kind: KindRange, Iv: expr.Interval{ExactEmpty: true}, Constraint: "e1", Active: true})
	// An empty shard prunes with or without a predicate on the column.
	if _, _, ok := r.Prune(2, "t", map[string]expr.Interval{"k": iv(1, 2)}); !ok {
		t.Fatal("empty shard should prune predicated query")
	}
	if _, _, ok := r.Prune(2, "t", nil); !ok {
		t.Fatal("empty shard should prune unpredicated query")
	}
	if _, _, ok := r.Prune(2, "u", nil); ok {
		t.Fatal("emptiness is per-table")
	}
}

func TestRegistryRetire(t *testing.T) {
	r := NewRegistry()
	r.Install(Entry{Shard: 0, Table: "t", Column: "k", Kind: KindRange, Iv: iv(0, 10), Constraint: "router_t_s0_g1", Active: true})
	if !r.RetireConstraint("ROUTER_T_S0_G1") { // case-insensitive
		t.Fatal("retire should find the entry")
	}
	if r.RetireConstraint("router_t_s0_g1") {
		t.Fatal("second retire should be a no-op")
	}
	if r.Retired() != 1 {
		t.Fatalf("retired = %d", r.Retired())
	}
	if _, _, ok := r.Prune(0, "t", map[string]expr.Interval{"k": iv(100, 200)}); ok {
		t.Fatal("retired entry must not prune")
	}
	// Still visible in the snapshot, marked inactive.
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Active {
		t.Fatalf("snapshot = %+v", snap)
	}
}

func TestRegistryInstallReplacesGeneration(t *testing.T) {
	r := NewRegistry()
	r.Install(Entry{Shard: 0, Table: "t", Column: "k", Kind: KindRange, Iv: iv(0, 10), Constraint: "g1", Active: true})
	r.Install(Entry{Shard: 0, Table: "t", Column: "k", Kind: KindRange, Iv: iv(0, 100), Constraint: "g2", Active: true})
	if len(r.Snapshot()) != 1 {
		t.Fatalf("re-sync should replace, have %d entries", len(r.Snapshot()))
	}
	// The superseded generation's notices no longer retire anything; the
	// new generation's do.
	if r.RetireConstraint("g1") {
		t.Fatal("old generation should be forgotten")
	}
	if !r.RetireConstraint("g2") {
		t.Fatal("new generation should retire")
	}
}

func TestRegistryAbsorbNotices(t *testing.T) {
	r := NewRegistry()
	r.Install(Entry{Shard: 0, Table: "t", Column: "k", Kind: KindRange, Iv: iv(0, 10), Constraint: "router_t_s0_g1", Active: true})
	r.Install(Entry{Shard: 1, Table: "t", Column: "k", Kind: KindRange, Iv: iv(0, 10), Constraint: "router_t_s1_g2", Active: true})
	n := r.AbsorbNotices([]string{
		"ASC router_t_s0_g1 on t deactivated by violating write",
		"constraint check passed",                              // unrelated notice
		"ASC unknown_name on t deactivated by violating write", // not ours
	})
	if n != 1 {
		t.Fatalf("absorbed %d, want 1", n)
	}
	if r.Retired() != 1 {
		t.Fatalf("retired = %d", r.Retired())
	}
	// The untouched shard's entry still prunes.
	if _, _, ok := r.Prune(1, "t", map[string]expr.Interval{"k": iv(100, 200)}); !ok {
		t.Fatal("shard 1 entry should still be active")
	}
}

func TestRegistryDropTable(t *testing.T) {
	r := NewRegistry()
	r.Install(Entry{Shard: 0, Table: "t", Column: "k", Kind: KindRange, Iv: iv(0, 10), Constraint: "c1", Active: true})
	r.Install(Entry{Shard: 0, Table: "u", Column: "k", Kind: KindRange, Iv: iv(0, 10), Constraint: "c2", Active: true})
	r.DropTable("T")
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Table != "u" {
		t.Fatalf("snapshot after drop = %+v", snap)
	}
	if r.RetireConstraint("c1") {
		t.Fatal("dropped table's constraints should be forgotten")
	}
}

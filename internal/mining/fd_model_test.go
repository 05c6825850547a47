package mining_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"softdb/internal/engine"
	"softdb/internal/mining"
	"softdb/internal/schema"
	"softdb/internal/storage"
	"softdb/internal/types"
	"softdb/internal/workload"
)

// fdModel is the FD miner as it was over key strings: every visible row's
// values keyed by types.AppendKey, and g3 counted in maps keyed by the
// determinant's concatenated key and the dependent's key. MineFDs and
// VerifyFD over dictionary codes must reproduce it exactly.
type fdModel struct {
	def  *schema.Table
	keys [][]string // per column, per visible row
	n    int
}

func newFDModel(def *schema.Table, heap *storage.Heap) *fdModel {
	m := &fdModel{def: def, keys: make([][]string, def.Arity())}
	heap.Scan(nil, func(_ storage.RowID, row types.Row) bool {
		for i, d := range row {
			m.keys[i] = append(m.keys[i], string(types.AppendKey(nil, d)))
		}
		m.n++
		return true
	})
	return m
}

func (m *fdModel) g3(det []int, dep int) float64 {
	if m.n == 0 {
		return 0
	}
	groups := map[string]map[string]int{}
	for r := 0; r < m.n; r++ {
		var key string
		for _, d := range det {
			key += m.keys[d][r]
		}
		g := groups[key]
		if g == nil {
			g = map[string]int{}
			groups[key] = g
		}
		g[m.keys[dep][r]]++
	}
	kept := 0
	for _, g := range groups {
		best := 0
		for _, c := range g {
			best = max(best, c)
		}
		kept += best
	}
	return float64(kept) / float64(m.n)
}

func (m *fdModel) mine(cfg mining.FDMinerConfig) []mining.FD {
	arity := m.def.Arity()
	var out []mining.FD
	found := map[int][][]int{}
	has := func(s []int, v int) bool {
		for _, x := range s {
			if x == v {
				return true
			}
		}
		return false
	}
	consider := func(det []int, dep int) {
		if has(det, dep) {
			return
		}
		for _, prev := range found[dep] {
			sub := true
			for _, p := range prev {
				sub = sub && has(det, p)
			}
			if sub {
				return
			}
		}
		conf := m.g3(det, dep)
		if conf < cfg.MinConfidence {
			return
		}
		names := make([]string, len(det))
		for i, d := range det {
			names[i] = m.def.Columns[d].Name
		}
		out = append(out, mining.FD{Det: names, Dep: m.def.Columns[dep].Name, Confidence: conf})
		found[dep] = append(found[dep], append([]int(nil), det...))
	}
	for a := 0; a < arity; a++ {
		for dep := 0; dep < arity; dep++ {
			consider([]int{a}, dep)
		}
	}
	if cfg.MaxLHS >= 2 {
		for a := 0; a < arity; a++ {
			for b := a + 1; b < arity; b++ {
				for dep := 0; dep < arity; dep++ {
					consider([]int{a, b}, dep)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Det) != len(out[j].Det) {
			return len(out[i].Det) < len(out[j].Det)
		}
		if out[i].Dep != out[j].Dep {
			return out[i].Dep < out[j].Dep
		}
		return out[i].Det[0] < out[j].Det[0]
	})
	return out
}

// checkFDs compares MineFDs at MaxLHS 1 and 2 and VerifyFD for every
// determinant of one or two columns with the model.
func checkFDs(t *testing.T, def *schema.Table, h *storage.Heap) {
	t.Helper()
	m := newFDModel(def, h)
	for _, cfg := range []mining.FDMinerConfig{
		{MaxLHS: 1, MinConfidence: 1, MinRows: 1},
		{MaxLHS: 2, MinConfidence: 1, MinRows: 1},
		{MaxLHS: 1, MinConfidence: 0.3, MinRows: 1},
		{MaxLHS: 2, MinConfidence: 0.3, MinRows: 1},
	} {
		got, want := mining.MineFDs(def, h, cfg), m.mine(cfg)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, MaxLHS %d, MinConfidence %g:\n got %v\nwant %v", def.Name, cfg.MaxLHS, cfg.MinConfidence, got, want)
		}
	}
	arity := def.Arity()
	for a := 0; a < arity; a++ {
		for b := a; b < arity; b++ {
			det := []int{a}
			if b > a {
				det = append(det, b)
			}
			names := make([]string, len(det))
			for i, d := range det {
				names[i] = def.Columns[d].Name
			}
			for dep := 0; dep < arity; dep++ {
				got, want := mining.VerifyFD(def, h, names, def.Columns[dep].Name), m.g3(det, dep)
				if m.n == 0 {
					want = 1
				}
				if got != want {
					t.Fatalf("%s: VerifyFD(%v → %s) = %v, model %v", def.Name, names, def.Columns[dep].Name, got, want)
				}
			}
		}
	}
}

// TestFDCodesMatchAppendKeyModel checks the dictionary-coded FD miner and
// VerifyFD against the key-string model on random heaps of every kind —
// low-cardinality edge values (±0, which key equal, 2^53 and 2^53+1, which
// do not, "" and NULL) and committed, uncommitted and aborted versions —
// and on the orders_wide table the FD experiments mine.
func TestFDCodesMatchAppendKeyModel(t *testing.T) {
	def := &schema.Table{Name: "t", Columns: []schema.Column{
		{Name: "i", Type: types.KindInt, Nullable: true},
		{Name: "f", Type: types.KindFloat, Nullable: true},
		{Name: "s", Type: types.KindString, Nullable: true},
		{Name: "b", Type: types.KindBool, Nullable: true},
		{Name: "d", Type: types.KindDate, Nullable: true},
	}}
	ints := []int64{0, 1, 1 << 53, 1<<53 + 1, math.MinInt64}
	floats := []float64{0, math.Copysign(0, -1), 1, 1 << 53, math.Inf(-1)}
	strs := []string{"", "a", "\x00", "ab"}
	for seed := int64(1); seed <= 40; seed++ {
		r := rand.New(rand.NewSource(seed))
		h := storage.NewHeap(def)
		card := 1 + r.Intn(4) // small value domains, so dependencies hold and break
		value := func(k types.Kind) types.Datum {
			if r.Intn(8) == 0 {
				return types.Null
			}
			c := r.Intn(card)
			switch k {
			case types.KindInt:
				return types.NewInt(ints[c%len(ints)])
			case types.KindFloat:
				return types.NewFloat(floats[c%len(floats)])
			case types.KindString:
				return types.NewString(strs[c%len(strs)])
			case types.KindBool:
				return types.NewBool(c%2 == 0)
			default:
				return types.NewDate(int64(c))
			}
		}
		var rids []storage.RowID
		for i, n := 0, 20+r.Intn(200); i < n; i++ {
			row := make(types.Row, len(def.Columns))
			for ci, c := range def.Columns {
				row[ci] = value(c.Type)
			}
			switch r.Intn(10) {
			case 0:
				h.AppendVersions([]types.Row{row}, int64(i+1), nil) // uncommitted: invisible
			case 1:
				h.AbortInsert(h.AppendVersions([]types.Row{row}, int64(i+1), nil)[0])
			default:
				rids = append(rids, h.Insert(row))
			}
		}
		for _, rid := range rids {
			switch r.Intn(12) {
			case 0:
				h.SetEnd(rid, 5) // committed delete
			case 1:
				h.SetEnd(rid, -999) // uncommitted delete: still visible
			}
		}
		checkFDs(t, def, h)
	}

	db := engine.Open()
	if err := workload.LoadDenormalized(db, 1500, 40, 7); err != nil {
		t.Fatal(err)
	}
	te, err := db.Catalog().Table("orders_wide")
	if err != nil {
		t.Fatal(err)
	}
	checkFDs(t, te.Def, te.Heap)
}

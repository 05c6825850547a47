package storage

import (
	"math"
	"math/rand"
	"testing"

	"softdb/internal/schema"
	"softdb/internal/types"
)

// zoneColWords is one column of a published zone entry as stored: the null
// count, the bounds' kinds, the words of word-stored bounds and the datums of
// boxed ones.
type zoneColWords struct {
	nulls  int64
	lk, hk types.Kind
	lo, hi int64
	box    [2]types.Datum
}

// zoneWords reads page pi's entry as stored: its row count and columns.
func zoneWords(h *Heap, pi int) (int64, []zoneColWords) {
	b, i := h.zoneSlot(pi)
	out := make([]zoneColWords, len(b.cols))
	for ci := range b.cols {
		zc := &b.cols[ci]
		w := &out[ci]
		w.nulls, w.lk, w.hk = unpackMeta(zc.meta[i].Load())
		w.lo, w.hi = zc.lo[i].Load(), zc.hi[i].Load()
		if box := zc.box[i].Load(); box != nil {
			w.box = *box
		}
	}
	return b.rows(i), out
}

// checkZoneAddMatchesRecompute compares every page's entry, as inserts
// widened it, with the one zoneRecompute builds from the page's slots in slot
// order. With exact set every stored word must agree (a FLOAT bound keeps
// its sign: −0 merged before +0 stays −0 in both); without it, bounds need
// only compare equal and have the same kinds (a replay that resurrects a
// slot merges it out of slot order).
func checkZoneAddMatchesRecompute(t *testing.T, h *Heap, exact bool) {
	t.Helper()
	for pi, p := range h.pageList() {
		rows, added := zoneWords(h, pi)
		if rows < 0 {
			continue // never published: no non-aborted slot (checkZone checks it)
		}
		h.zoneRecompute(pi, p)
		rrows, recomputed := zoneWords(h, pi)
		if rows != rrows {
			t.Fatalf("page %d: widened entry counts %d rows, recomputed %d", pi, rows, rrows)
		}
		for ci := range added {
			a, r := added[ci], recomputed[ci]
			same := a == r
			if !exact {
				alo, ahi := zoneBoundsOf(a)
				rlo, rhi := zoneBoundsOf(r)
				same = a.nulls == r.nulls && a.lk == r.lk && a.hk == r.hk && alo.Compare(rlo) == 0 && ahi.Compare(rhi) == 0
			}
			if !same {
				t.Fatalf("page %d col %d: widened entry %+v, recomputed %+v", pi, ci, a, r)
			}
		}
	}
}

func zoneBoundsOf(w zoneColWords) (lo, hi types.Datum) {
	if !imaged(w.lk) || !imaged(w.hk) {
		return w.box[0], w.box[1]
	}
	return fromImage(w.lk, w.lo), fromImage(w.hk, w.hi)
}

// TestZoneAddMatchesRecompute: for a column of every kind, the entry that
// install widens insert by insert (one-slot zoneAddRun runs) holds exactly
// the words zoneRecompute stores for the same slots — after −0 then +0 and
// +0 then −0, ±Inf and the int64 extremes, runs of NULLs, all-NULL columns
// and all-NULL pages, and random mixes spanning several pages.
func TestZoneAddMatchesRecompute(t *testing.T) {
	def := mustTable("z",
		schema.Column{Name: "i", Type: types.KindInt, Nullable: true},
		schema.Column{Name: "f", Type: types.KindFloat, Nullable: true},
		schema.Column{Name: "d", Type: types.KindDate, Nullable: true},
		schema.Column{Name: "b", Type: types.KindBool, Nullable: true},
		schema.Column{Name: "s", Type: types.KindString, Nullable: true},
	)
	negZero := types.NewFloat(math.Copysign(0, -1))
	posZero := types.NewFloat(0)
	null := types.Null
	row := func(i, f, d, b, s types.Datum) types.Row { return types.Row{i, f, d, b, s} }
	sequences := map[string][]types.Row{
		"-0 then +0": {
			row(types.NewInt(0), negZero, types.NewDate(0), types.NewBool(false), types.NewString("")),
			row(types.NewInt(0), posZero, types.NewDate(0), types.NewBool(false), types.NewString("")),
		},
		"+0 then -0": {
			row(null, posZero, null, null, null),
			row(null, negZero, null, null, null),
			row(null, posZero, null, null, null),
		},
		"infinities and extremes": {
			row(types.NewInt(math.MaxInt64), types.NewFloat(math.Inf(1)), types.NewDate(-5), types.NewBool(true), types.NewString("zz")),
			row(null, null, null, null, null),
			row(types.NewInt(math.MinInt64), types.NewFloat(math.Inf(-1)), types.NewDate(5), types.NewBool(false), types.NewString("\x00")),
			row(types.NewInt(-1), types.NewFloat(math.Inf(1)), types.NewDate(0), types.NewBool(true), types.NewString("a")),
		},
		"NULL run then values": {
			row(null, null, null, null, null),
			row(null, null, null, null, null),
			row(null, null, null, null, null),
			row(types.NewInt(4), types.NewFloat(-2.5), types.NewDate(9), types.NewBool(true), types.NewString("q")),
			row(null, null, null, null, null),
			row(types.NewInt(3), negZero, types.NewDate(10), types.NewBool(false), types.NewString("p")),
		},
	}
	for name, rows := range sequences {
		h := NewHeap(def)
		for _, r := range rows {
			h.Insert(r)
		}
		checkZoneAddMatchesRecompute(t, h, true)
		if t.Failed() {
			t.Fatalf("sequence %q", name)
		}
	}
	// All-NULL pages beside mixed ones, and random values over several pages.
	r := rand.New(rand.NewSource(38))
	floats := []float64{math.Inf(-1), -1, math.Copysign(0, -1), 0, 0.5, math.Inf(1)}
	for trial := 0; trial < 20; trial++ {
		h := NewHeap(def)
		per := h.RowsPerPage()
		for k := 0; k < 3*per+r.Intn(per); k++ {
			allNull := (k/per)%2 == trial%2
			val := func(d types.Datum) types.Datum {
				if allNull || r.Intn(4) == 0 {
					return null
				}
				return d
			}
			v := int64(r.Intn(40) - 20)
			h.Insert(row(val(types.NewInt(v)), val(types.NewFloat(floats[r.Intn(len(floats))])),
				val(types.NewDate(v*3)), val(types.NewBool(v%2 == 0)), val(types.NewString(string(rune('a'+r.Intn(26)))))))
		}
		checkZoneAddMatchesRecompute(t, h, true)
	}
}

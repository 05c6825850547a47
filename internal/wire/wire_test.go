package wire

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"softdb/internal/exec"
	"softdb/internal/types"
)

// TestFrameRoundTrip: every frame type survives write→read with its
// payload intact.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := map[FrameType][]byte{
		FrameQuery:   AppendQuery(nil, Query{SQL: "SELECT 1", TimeoutMillis: 250, Flags: 3}),
		FrameSet:     AppendSet(nil, Set{Name: "prune", Value: "off"}),
		FrameWelcome: AppendWelcome(nil, Welcome{Proto: ProtoVersion, Session: "conn-7"}),
		FrameRowDesc: AppendColumns(nil, []string{"a", "b"}),
		FrameNotice:  []byte("heads up"),
		FrameDone:    AppendDone(nil, Done{RowsAffected: -1}),
		FrameOK:      nil,
		FrameError:   AppendError(nil, &Error{Kind: exec.KindTimeout, Op: "scan", Msg: "deadline"}),
	}
	var order []FrameType
	for ft, p := range payloads {
		order = append(order, ft)
		if err := WriteFrame(&buf, ft, p); err != nil {
			t.Fatalf("write %v: %v", ft, err)
		}
	}
	for _, want := range order {
		ft, p, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("read %v: %v", want, err)
		}
		if ft != want || !bytes.Equal(p, payloads[want]) {
			t.Fatalf("frame %v round-tripped as %v payload %x (want %x)", want, ft, p, payloads[want])
		}
	}
}

// TestQueryRoundTrip pins the request payload fields.
func TestQueryRoundTrip(t *testing.T) {
	q := Query{SQL: "SELECT * FROM t WHERE a >= 10", TimeoutMillis: 1500, Flags: 0}
	got, err := ParseQuery(AppendQuery(nil, q))
	if err != nil {
		t.Fatal(err)
	}
	if got != q {
		t.Fatalf("got %+v want %+v", got, q)
	}
}

// TestRowsRoundTrip covers every datum kind, including NULL and empty
// strings, across batch boundaries.
func TestRowsRoundTrip(t *testing.T) {
	rows := []types.Row{
		{types.NewInt(-42), types.NewFloat(3.5), types.NewString("héllo"), types.NewBool(true), types.NewDate(10592), types.Null},
		{types.NewInt(1 << 60), types.NewFloat(-0.0), types.NewString(""), types.NewBool(false), types.NewDate(-1), types.Null},
	}
	payload, err := AppendRows(nil, rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRows(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rows) {
		t.Fatalf("rows: %d want %d", len(got), len(rows))
	}
	for i := range rows {
		if len(got[i]) != len(rows[i]) {
			t.Fatalf("row %d width: %d want %d", i, len(got[i]), len(rows[i]))
		}
		for c := range rows[i] {
			a, b := got[i][c], rows[i][c]
			if a.Kind() != b.Kind() {
				t.Fatalf("row %d col %d kind %s want %s", i, c, a.Kind(), b.Kind())
			}
			if !a.IsNull() && !a.Equal(b) {
				t.Fatalf("row %d col %d: %s want %s", i, c, a, b)
			}
		}
	}
}

// TestErrorFrom: typed engine errors keep their kind and op across the
// wire; untyped errors become KindError.
func TestErrorFrom(t *testing.T) {
	qe := &exec.QueryError{Op: "exec.Sort", Kind: exec.KindMemBudget, Err: errors.New("budget 42 bytes")}
	e := ErrorFrom(fmt.Errorf("wrapped: %w", qe))
	if e.Kind != exec.KindMemBudget || e.Op != "exec.Sort" {
		t.Fatalf("ErrorFrom lost structure: %+v", e)
	}
	decoded, err := ParseError(AppendError(nil, e))
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Kind != exec.KindMemBudget || decoded.Op != "exec.Sort" || !strings.Contains(decoded.Msg, "budget") {
		t.Fatalf("decoded error lost structure: %+v", decoded)
	}
	if !strings.Contains(decoded.Error(), "oom") || !strings.Contains(decoded.Error(), "exec.Sort") {
		t.Fatalf("rendered error missing kind/op: %s", decoded.Error())
	}

	plain := ErrorFrom(errors.New("parse error at line 1"))
	if plain.Kind != exec.KindError || plain.Op != "" {
		t.Fatalf("plain error should map to KindError: %+v", plain)
	}
}

// TestFrameLimits: oversized length prefixes are rejected before
// allocation, and truncated payloads surface as errors, not hangs.
func TestFrameLimits(t *testing.T) {
	hdr := []byte{byte(FrameQuery), 0xFF, 0xFF, 0xFF, 0xFF}
	if _, _, err := ReadFrame(bytes.NewReader(hdr)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: %v", err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameNotice, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	short := buf.Bytes()[:buf.Len()-2]
	if _, _, err := ReadFrame(bytes.NewReader(short)); err == nil || errors.Is(err, io.EOF) && false {
		t.Fatalf("truncated payload should error, got %v", err)
	}
}

// TestMalformedPayloads: decoding garbage returns errors rather than
// panicking or fabricating values.
func TestMalformedPayloads(t *testing.T) {
	junk := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	if _, err := ParseQuery(junk[:1]); err == nil {
		t.Error("short query payload should error")
	}
	if _, err := ParseColumns([]byte{0x09}); err == nil {
		t.Error("column count beyond payload should error")
	}
	if _, err := ParseRows(nil, []byte{0x03, 0x01, 0x63}); err == nil {
		t.Error("row with unknown datum kind should error")
	}
	if _, err := ParseWelcome(nil); err == nil {
		t.Error("empty welcome should error")
	}
}

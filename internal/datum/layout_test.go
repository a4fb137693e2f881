package datum_test

import (
	"math"
	"testing"
	"unsafe"

	"onlinetuner/internal/datum"
	"onlinetuner/internal/wal"
)

// TestDatumIs32Bytes pins the datum's size: every heap row, index key,
// batch slab and mixed-kind column is a run of datums.
func TestDatumIs32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(datum.Datum{}); got != 32 {
		t.Fatalf("unsafe.Sizeof(Datum{}) = %d, want 32", got)
	}
}

// TestFloatDatumBits checks that a float kept as its IEEE 754 bits
// renders, compares, converts and crosses the WAL exactly as a float
// field did. The rendered keys are the bytes a separate float64 field
// produced.
func TestFloatDatumBits(t *testing.T) {
	point1, point2 := 0.1, 0.2
	cases := []struct {
		name string
		v    float64
		key  string
	}{
		{"NaN", math.NaN(), "NaN"},
		{"-0", math.Copysign(0, -1), "-0"},
		{"+0", 0, "0"},
		{"+Inf", math.Inf(1), "+Inf"},
		{"-Inf", math.Inf(-1), "-Inf"},
		{"smallest subnormal", math.SmallestNonzeroFloat64, "5e-324"},
		{"MaxFloat64", math.MaxFloat64, "1.7976931348623157e+308"},
		{"0.1+0.2", point1 + point2, "0.30000000000000004"},
		{"1e21", 1e21, "1e+21"},
	}
	var row datum.Row
	for _, tc := range cases {
		d := datum.NewFloat(tc.v)
		if got := string(d.AppendKey(nil)); got != tc.key {
			t.Errorf("%s: AppendKey = %q, want %q", tc.name, got, tc.key)
		}
		if got := d.Float(); math.Float64bits(got) != math.Float64bits(tc.v) {
			t.Errorf("%s: Float() bits %#x, want %#x", tc.name, math.Float64bits(got), math.Float64bits(tc.v))
		}
		if d.Kind() != datum.KFloat {
			t.Errorf("%s: kind %s, want FLOAT", tc.name, d.Kind())
		}
		row = append(row, d)
	}

	negZero, posZero := datum.NewFloat(math.Copysign(0, -1)), datum.NewFloat(0)
	if c := negZero.Compare(posZero); c != 0 {
		t.Errorf("Compare(-0, +0) = %d, want 0", c)
	}
	nan := datum.NewFloat(math.NaN())
	for _, o := range []datum.Datum{datum.NewFloat(math.Inf(-1)), negZero, datum.NewInt(math.MinInt64)} {
		if c := nan.Compare(o); c != -1 {
			t.Errorf("Compare(NaN, %v) = %d, want -1", o, c)
		}
		if c := o.Compare(nan); c != 1 {
			t.Errorf("Compare(%v, NaN) = %d, want 1", o, c)
		}
	}
	if c := nan.Compare(nan); c != 0 {
		t.Errorf("Compare(NaN, NaN) = %d, want 0", c)
	}

	rec := &wal.Record{Kind: wal.KindPageWrite, Op: wal.OpInsert, Table: "t", RID: 7, Row: row}
	got, _, err := wal.DecodeRecord(wal.AppendRecord(nil, rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Row) != len(row) {
		t.Fatalf("decoded %d fields, want %d", len(got.Row), len(row))
	}
	for i, d := range got.Row {
		if d.Kind() != datum.KFloat || math.Float64bits(d.Float()) != math.Float64bits(row[i].Float()) {
			t.Errorf("%s: WAL round trip gave %v (bits %#x)", cases[i].name, d, math.Float64bits(d.Float()))
		}
	}
}

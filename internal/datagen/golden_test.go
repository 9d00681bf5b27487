package datagen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"robustmap/internal/record"
)

// TestGeneratedBytesPinned pins the generator's output byte for byte:
// the SHA-256 of every encoded row, in insertion order. Every measured
// time and row count is a function of these bytes, so any change to
// the draw order or to a schema shows up here before it reaches a map.
func TestGeneratedBytesPinned(t *testing.T) {
	digest := func(schema *record.Schema, gen func(fn func(row []record.Value) error) error) string {
		h := sha256.New()
		var buf []byte
		if err := gen(func(row []record.Value) error {
			var err error
			buf, err = schema.Encode(buf[:0], row)
			h.Write(buf)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	table := func(c Catalog, i int) string {
		return digest(c.Schema(i), func(fn func(row []record.Value) error) error { return c.Generate(i, fn) })
	}
	fk := Catalog{
		{Name: "customer", Rows: 512, Seed: 3, ZipfB: 1.3},
		{Name: "orders", Rows: 4096, Seed: 4, ForeignKeys: []ForeignKey{
			{Column: "ord_cust", RefTable: "customer", Containment: 0.8, FanoutZipf: 1.4},
			{Column: "ord_clerk", RefTable: "customer"},
		}},
	}
	cases := []struct {
		name, got, want string
	}{
		{"lineitem", table(Catalog{{Name: "lineitem", Rows: 4096, Seed: 2009}}, 0), "876e80c9f198502d8a06d9f58ab3d5364b8d1f52e4cc3118fdacc05bc6477aa7"},
		{"lineitem-zipf", table(Catalog{{Rows: 4096, Seed: 7, PayloadBytes: 16, ZipfA: 1.5, ZipfB: 2}}, 0), "817e226acee8173626060905f3c4adf3dd34adfdfcc6c3b9abe46c36ed784c53"},
		{"fk-parent", table(fk, 0), "3611bca58c8ae40e3132e40bcfd51dea6720ff504cd18dba30661d9eb643bb85"},
		{"fk-child", table(fk, 1), "e67c4505c4c9c025d275dfbd0afdecffb1d13a326d5b6d48539e7037c3c3fdf2"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("%s: generated bytes hash to %s, pinned %s", c.name, c.got, c.want)
		}
	}
}

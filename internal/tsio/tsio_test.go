package tsio

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

func fixture(t *testing.T) *tsdata.Dataset {
	t.Helper()
	ds, err := gen.Temp(gen.TempConfig{M: 12, Navg: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func datasetsEqual(t *testing.T, a, b *tsdata.Dataset) {
	t.Helper()
	if a.NumSeries() != b.NumSeries() || a.NumSegments() != b.NumSegments() {
		t.Fatalf("shape mismatch: (%d,%d) vs (%d,%d)",
			a.NumSeries(), a.NumSegments(), b.NumSeries(), b.NumSegments())
	}
	for i := 0; i < a.NumSeries(); i++ {
		sa := a.Series(tsdata.SeriesID(i))
		sb := b.Series(tsdata.SeriesID(i))
		if sa.NumSegments() != sb.NumSegments() {
			t.Fatalf("series %d segments differ", i)
		}
		for j := 0; j <= sa.NumSegments(); j++ {
			if sa.VertexTime(j) != sb.VertexTime(j) || sa.VertexValue(j) != sb.VertexValue(j) {
				t.Fatalf("series %d vertex %d differs", i, j)
			}
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	ds := fixture(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, back)
}

func TestBinaryRoundTrip(t *testing.T) {
	ds := fixture(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, back)
}

func TestCSVInterleavedAndComments(t *testing.T) {
	in := `# comment
1,0,5
0,0,1
1,1,6

0,1,2
0,2,3
1,2,7
`
	ds, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumSeries() != 2 {
		t.Fatalf("m = %d", ds.NumSeries())
	}
	if got := ds.Series(0).Range(0, 2); got != 4 { // trapezoid (1+2)/2 + (2+3)/2 = 1.5+2.5
		t.Errorf("series 0 integral = %g, want 4", got)
	}
}

func TestCSVErrors(t *testing.T) {
	cases := map[string]string{
		"bad fields":   "1,2\n",
		"bad id":       "x,0,1\n",
		"bad time":     "0,x,1\n",
		"bad value":    "0,0,x\n",
		"negative id":  "-1,0,1\n",
		"empty":        "",
		"sparse ids":   "0,0,1\n0,1,2\n5,0,1\n5,1,2\n",
		"single point": "0,0,1\n",
		"dup time":     "0,1,1\n0,1,2\n",
	}
	for name, in := range cases {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestBinaryErrors(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOPE")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("TRK1")); err == nil {
		t.Error("truncated header accepted")
	}
	// Truncated body.
	ds := fixture(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, ds); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()/2]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestCSVNegativeValues(t *testing.T) {
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 5, Navg: 10, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	datasetsEqual(t, ds, back)
	if !back.HasNegative() {
		t.Error("negatives lost in round trip")
	}
}

// TestReadDetectsFormat: Read dispatches on the binary magic alone. Both
// formats round-trip, input too short to hold the magic is CSV (and
// fails as CSV), and a TRK1 header with a truncated body fails in the
// binary reader instead of panicking or falling back to CSV.
func TestReadDetectsFormat(t *testing.T) {
	ds := fixture(t)
	var csv, bin bytes.Buffer
	if err := WriteCSV(&csv, ds); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, ds); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"csv": csv.Bytes(), "binary": bin.Bytes()} {
		back, err := Read(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		datasetsEqual(t, ds, back)
	}

	for name, in := range map[string]string{"empty": "", "3 bytes": "TRK"} {
		_, err := Read(strings.NewReader(in))
		_, csvErr := ReadCSV(strings.NewReader(in))
		if err == nil || csvErr == nil || err.Error() != csvErr.Error() {
			t.Errorf("%s: Read err = %v, want the CSV reader's %v", name, err, csvErr)
		}
	}

	trunc := bin.Bytes()[:len(binaryMagic)+8+20]
	_, err := Read(bytes.NewReader(trunc))
	_, binErr := ReadBinary(bytes.NewReader(trunc))
	if err == nil || binErr == nil || err.Error() != binErr.Error() {
		t.Errorf("truncated TRK1: Read err = %v, want the binary reader's %v", err, binErr)
	}
}

// binaryHeader is a TRK1 file's first bytes: the magic, then the given
// counts as they are written (the object count, then the first object's
// vertex count, and so on).
func binaryHeader(counts ...uint64) []byte {
	b := []byte(binaryMagic)
	for _, c := range counts {
		b = binary.LittleEndian.AppendUint64(b, c)
	}
	return b
}

// TestReadBinaryForgedCounts: a header claiming 2^32 objects, and an
// object claiming 2^40 vertices, each with no body behind it, fail with
// an error after allocating less than 1 MB, instead of reserving what
// the counts claim.
func TestReadBinaryForgedCounts(t *testing.T) {
	for name, in := range map[string][]byte{
		"2^32 objects":  binaryHeader(1 << 32),
		"2^40 vertices": binaryHeader(1, 1<<40, 0, 0),
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes before failing, want < 1 MB", name, got)
		}
	}
}

// FuzzReadBinary: whatever the bytes, ReadBinary returns a dataset or an
// error and never panics, and a dataset it returns is written back as a
// prefix of the bytes it was read from.
func FuzzReadBinary(f *testing.F) {
	ds, err := gen.Temp(gen.TempConfig{M: 3, Navg: 4, Seed: 3})
	if err != nil {
		f.Fatal(err)
	}
	var valid bytes.Buffer
	if err := WriteBinary(&valid, ds); err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= valid.Len(); n++ {
		f.Add(valid.Bytes()[:n])
	}
	f.Add(binaryHeader(1 << 32))
	f.Add(binaryHeader(1<<32 + 1))
	f.Add(binaryHeader(1, 1<<40, 0, 0))
	f.Add(binaryHeader(2, 2, 0, 0, 1, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var again bytes.Buffer
		if err := WriteBinary(&again, ds); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatal("re-encoded dataset differs from the bytes it was read from")
		}
	})
}

package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// forged builds a little-endian header from u32 and i64 fields.
func forged(fields ...any) []byte {
	var buf bytes.Buffer
	for _, f := range fields {
		if err := binary.Write(&buf, binary.LittleEndian, f); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// Headers whose counts promise far more than the bytes that follow.
var (
	// A 4 KiB-page image claiming 4,096 pages, followed by four bytes.
	forgedImage = forged(uint32(blockio.DefaultBlockSize), int64(1<<12), uint32(0))
	// A 16 MiB-page image claiming one page, followed by four bytes.
	forgedBlockSize = forged(uint32(1<<24), int64(1), uint32(0))
	// A dataset claiming 2^20 series and holding none.
	forgedSeries = forged(uint32(1 << 20))
	// A dataset whose one series claims 2^20 vertices and holds none.
	forgedVertices = forged(uint32(1), uint32(1<<20))
)

func encodedImage(t testing.TB) []byte {
	t.Helper()
	dev := blockio.NewMemDevice(MinBlockSize)
	for i := 0; i < 3; i++ {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := dev.Write(id, bytes.Repeat([]byte{byte(i + 1)}, 10*(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteDevicePages(&buf, dev); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func encodedDataset(t testing.TB) []byte {
	t.Helper()
	var series []*tsdata.Series
	for i := 0; i < 3; i++ {
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), []float64{0, 1, 2.5}, []float64{float64(i), -1, 4})
		if err != nil {
			t.Fatal(err)
		}
		series = append(series, s)
	}
	ds, err := tsdata.NewDataset(series)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteDataset(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodersBoundForgedCounts: a header that claims a large count
// must fail as ErrBadSnapshot without allocating what it claims.
func TestDecodersBoundForgedCounts(t *testing.T) {
	decodeImage := func(b []byte) error { _, err := ReadDevicePages(bytes.NewReader(b)); return err }
	decodeDataset := func(b []byte) error { _, err := ReadDataset(bytes.NewReader(b)); return err }
	for _, tc := range []struct {
		name   string
		decode func([]byte) error
		input  []byte
	}{
		{"page image", decodeImage, forgedImage},
		{"block size", decodeImage, forgedBlockSize},
		{"series count", decodeDataset, forgedSeries},
		{"vertex count", decodeDataset, forgedVertices},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.decode(tc.input)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, trerr.ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", tc.name, err)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta >= 1<<20 {
			t.Errorf("%s: decoding a %d-byte forged header allocated %d bytes", tc.name, len(tc.input), delta)
		}
	}
}

// seedTruncations adds valid and every truncation of it to f.
func seedTruncations(f *testing.F, valid []byte) {
	for n := 0; n <= len(valid); n++ {
		f.Add(valid[:n])
	}
}

func FuzzReadDevicePages(f *testing.F) {
	seedTruncations(f, encodedImage(f))
	f.Add(forgedImage)
	f.Add(forgedBlockSize)
	f.Fuzz(func(t *testing.T, data []byte) {
		dev, err := ReadDevicePages(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, trerr.ErrBadSnapshot) {
				t.Fatalf("error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteDevicePages(&again, dev); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatal("re-encoded image differs from the bytes it was decoded from")
		}
	})
}

func FuzzReadDataset(f *testing.F) {
	seedTruncations(f, encodedDataset(f))
	f.Add(forgedSeries)
	f.Add(forgedVertices)
	f.Fuzz(func(t *testing.T, data []byte) {
		ds, err := ReadDataset(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, trerr.ErrBadSnapshot) {
				t.Fatalf("error does not wrap ErrBadSnapshot: %v", err)
			}
			return
		}
		var again bytes.Buffer
		if err := WriteDataset(&again, ds); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, again.Bytes()) {
			t.Fatal("re-encoded dataset differs from the bytes it was decoded from")
		}
	})
}

// Package tsio reads and writes temporal datasets in two formats:
//
//   - CSV: one "id,time,value" row per reading, readings of an object
//     in increasing time order (the natural export of both MesoWest and
//     Memetracker dumps the paper uses). IDs must be dense 0..m-1 but
//     rows of different objects may interleave.
//   - A compact binary format (magic "TRK1") for fast reload of large
//     generated datasets.
//
// Read tells the two apart by the magic, so callers never name the
// format of a file they read.
package tsio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"temporalrank/internal/tsdata"
)

// WriteCSV emits the dataset as id,time,value rows.
func WriteCSV(w io.Writer, ds *tsdata.Dataset) error {
	bw := bufio.NewWriter(w)
	for _, s := range ds.AllSeries() {
		for j := 0; j <= s.NumSegments(); j++ {
			if _, err := fmt.Fprintf(bw, "%d,%s,%s\n", s.ID,
				strconv.FormatFloat(s.VertexTime(j), 'g', -1, 64),
				strconv.FormatFloat(s.VertexValue(j), 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadCSV parses id,time,value rows into a dataset. Blank lines and
// lines starting with '#' are skipped.
func ReadCSV(r io.Reader) (*tsdata.Dataset, error) {
	type vertex struct{ t, v float64 }
	byID := map[int][]vertex{}
	maxID := -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("tsio: line %d: want id,time,value, got %q", lineNo, line)
		}
		id, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad id: %w", lineNo, err)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad time: %w", lineNo, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
		if err != nil {
			return nil, fmt.Errorf("tsio: line %d: bad value: %w", lineNo, err)
		}
		if id < 0 {
			return nil, fmt.Errorf("tsio: line %d: negative id %d", lineNo, id)
		}
		byID[id] = append(byID[id], vertex{t, v})
		if id > maxID {
			maxID = id
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if maxID < 0 {
		return nil, fmt.Errorf("tsio: empty input")
	}
	series := make([]*tsdata.Series, maxID+1)
	for id := 0; id <= maxID; id++ {
		vs := byID[id]
		if len(vs) < 2 {
			return nil, fmt.Errorf("tsio: object %d has %d readings, need >= 2 (ids must be dense)", id, len(vs))
		}
		sort.Slice(vs, func(a, b int) bool { return vs[a].t < vs[b].t })
		times := make([]float64, len(vs))
		values := make([]float64, len(vs))
		for j, p := range vs {
			times[j] = p.t
			values[j] = p.v
		}
		s, err := tsdata.NewSeries(tsdata.SeriesID(id), times, values)
		if err != nil {
			return nil, fmt.Errorf("tsio: object %d: %w", id, err)
		}
		series[id] = s
	}
	return tsdata.NewDataset(series)
}

const binaryMagic = "TRK1"

// WriteBinary emits the compact binary format: magic, m, then per
// object the vertex count followed by (time, value) pairs.
func WriteBinary(w io.Writer, ds *tsdata.Dataset) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var scratch [8]byte
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	if err := writeU64(uint64(ds.NumSeries())); err != nil {
		return err
	}
	for _, s := range ds.AllSeries() {
		if err := writeU64(uint64(s.NumSegments() + 1)); err != nil {
			return err
		}
		for j := 0; j <= s.NumSegments(); j++ {
			if err := writeU64(math.Float64bits(s.VertexTime(j))); err != nil {
				return err
			}
			if err := writeU64(math.Float64bits(s.VertexValue(j))); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Read parses a dataset in either format: input starting with the
// binary magic "TRK1" is read as binary, anything else as CSV. No CSV
// row can start that way, since its first field is an integer ID.
func Read(r io.Reader) (*tsdata.Dataset, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(binaryMagic)); string(magic) == binaryMagic {
		return ReadBinary(br)
	}
	return ReadCSV(br)
}

// maxPrealloc caps the capacity ReadBinary reserves on the strength of
// a count the file claims (64 KiB of floats); larger collections grow
// as their elements are actually read, so a forged or corrupt count
// costs memory only for the bytes the file really holds.
const maxPrealloc = 1 << 13

// ReadBinary parses the compact binary format.
func ReadBinary(r io.Reader) (*tsdata.Dataset, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("tsio: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("tsio: bad magic %q", magic)
	}
	var scratch [8]byte
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	m, err := readU64()
	if err != nil {
		return nil, err
	}
	if m == 0 || m > 1<<32 {
		return nil, fmt.Errorf("tsio: implausible object count %d", m)
	}
	series := make([]*tsdata.Series, 0, min(m, maxPrealloc))
	for i := uint64(0); i < m; i++ {
		n, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("tsio: object %d header: %w", i, err)
		}
		if n < 2 || n > 1<<40 {
			return nil, fmt.Errorf("tsio: object %d has implausible vertex count %d", i, n)
		}
		times := make([]float64, 0, min(n, maxPrealloc))
		values := make([]float64, 0, min(n, maxPrealloc))
		for j := uint64(0); j < n; j++ {
			tb, err := readU64()
			if err != nil {
				return nil, err
			}
			vb, err := readU64()
			if err != nil {
				return nil, err
			}
			times = append(times, math.Float64frombits(tb))
			values = append(values, math.Float64frombits(vb))
		}
		s, err := tsdata.NewSeries(tsdata.SeriesID(i), times, values)
		if err != nil {
			return nil, fmt.Errorf("tsio: object %d: %w", i, err)
		}
		series = append(series, s)
	}
	return tsdata.NewDataset(series)
}

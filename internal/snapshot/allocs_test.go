// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package snapshot

import "testing"

// TestDecodePageHeaderAllocs pins the validation of a clean stream page
// — type tag, payload bounds, CRC — at zero allocations; only the
// corrupt-page error paths build an error.
func TestDecodePageHeaderAllocs(t *testing.T) {
	page := make([]byte, 256)
	payload := page[pageHeaderSize:200]
	for i := range payload {
		payload[i] = byte(i)
	}
	encodePageHeader(page, TypeManifest, len(payload), 7)
	got := testing.AllocsPerRun(200, func() {
		n, next, err := decodePageHeader(page, TypeManifest)
		if err != nil || n != len(payload) || next != 7 {
			t.Fatalf("decodePageHeader = (%d, %d, %v)", n, next, err)
		}
	})
	if got != 0 {
		t.Errorf("decodePageHeader allocates %.1f allocs/op, want 0", got)
	}
}

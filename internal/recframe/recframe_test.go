package recframe

import (
	"bytes"
	"errors"
	"testing"
)

// frame appends every payload to one buffer and returns it with each
// record's end offset.
func frame(t testing.TB, payloads [][]byte) ([]byte, []int64) {
	t.Helper()
	var buf bytes.Buffer
	var ends []int64
	for _, p := range payloads {
		n, err := Append(&buf, p)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(HeaderLen+len(p)) {
			t.Fatalf("Append wrote %d bytes for a %d-byte payload", n, len(p))
		}
		ends = append(ends, int64(buf.Len()))
	}
	return buf.Bytes(), ends
}

// scanAll scans data and returns the payloads and offsets it delivered.
func scanAll(t testing.TB, data []byte) (ScanResult, [][]byte, []int64) {
	t.Helper()
	var got [][]byte
	var offs []int64
	res, err := Scan(bytes.NewReader(data), func(off int64, p []byte) error {
		got = append(got, p)
		offs = append(offs, off)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return res, got, offs
}

func testPayloads() [][]byte {
	ps := [][]byte{{}, {0x42}, []byte("seven b"), bytes.Repeat([]byte{0xa5}, 100), {}}
	big := make([]byte, 4096)
	for i := range big {
		big[i] = byte(i * 7)
	}
	return append(ps, big, []byte("tail"))
}

func TestAppendScanRoundTrip(t *testing.T) {
	payloads := testPayloads()
	data, ends := frame(t, payloads)
	res, got, offs := scanAll(t, data)
	if res != (ScanResult{GoodBytes: int64(len(data))}) {
		t.Fatalf("result %+v, want all %d bytes good and no torn tail", res, len(data))
	}
	if len(got) != len(payloads) {
		t.Fatalf("scanned %d records, appended %d", len(got), len(payloads))
	}
	var start int64
	for i := range payloads {
		if !bytes.Equal(got[i], payloads[i]) {
			t.Errorf("record %d: payload %x, want %x", i, got[i], payloads[i])
		}
		if offs[i] != start {
			t.Errorf("record %d: offset %d, want %d", i, offs[i], start)
		}
		start = ends[i]
	}
}

// TestTornTailAtEveryByte cuts a log at every byte boundary: the scan
// must deliver exactly the records that end at or before the cut and
// report the rest as a torn tail.
func TestTornTailAtEveryByte(t *testing.T) {
	payloads := testPayloads()
	data, ends := frame(t, payloads)
	for cut := 0; cut <= len(data); cut++ {
		whole, good := 0, int64(0)
		for whole < len(ends) && ends[whole] <= int64(cut) {
			good = ends[whole]
			whole++
		}
		res, got, _ := scanAll(t, data[:cut])
		want := ScanResult{GoodBytes: good, Torn: good != int64(cut)}
		if res != want || len(got) != whole {
			t.Fatalf("cut %d: %+v with %d records, want %+v with %d", cut, res, len(got), want, whole)
		}
	}
}

// TestCorruptHeaderStopsAtLastGoodRecord flips each byte of each
// record's length and CRC fields: the scan must stop just before that
// record, as a torn tail, having delivered every record before it.
func TestCorruptHeaderStopsAtLastGoodRecord(t *testing.T) {
	payloads := testPayloads()
	data, ends := frame(t, payloads)
	for k := range payloads {
		start := int64(0)
		if k > 0 {
			start = ends[k-1]
		}
		for b := 0; b < HeaderLen; b++ {
			for _, flip := range []byte{0x01, 0x80, 0xff} {
				bad := bytes.Clone(data)
				bad[start+int64(b)] ^= flip
				res, got, _ := scanAll(t, bad)
				want := ScanResult{GoodBytes: start, Torn: true}
				if res != want || len(got) != k {
					t.Fatalf("record %d header byte %d ^%#x: %+v with %d records, want %+v with %d",
						k, b, flip, res, len(got), want, k)
				}
			}
		}
	}
}

// TestScanStopsOnCallbackError checks that a callback error ends the
// scan at the record it rejected, which is not counted as good.
func TestScanStopsOnCallbackError(t *testing.T) {
	data, ends := frame(t, testPayloads())
	stop := errors.New("stop")
	n := 0
	res, err := Scan(bytes.NewReader(data), func(int64, []byte) error {
		if n++; n == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || res != (ScanResult{GoodBytes: ends[1]}) {
		t.Fatalf("Scan = %+v, %v; want GoodBytes %d and the callback's error", res, err, ends[1])
	}
}

// FuzzScan feeds arbitrary bytes to Scan: it must not panic, the good
// prefix must lie within the input (and be all of it unless the tail is
// torn), and re-appending the payloads it returned must reproduce
// exactly that prefix.
func FuzzScan(f *testing.F) {
	data, _ := frame(f, testPayloads())
	f.Add(data)
	f.Add(data[:len(data)-3])
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		res, got, _ := scanAll(t, in)
		if res.GoodBytes < 0 || res.GoodBytes > int64(len(in)) {
			t.Fatalf("GoodBytes %d outside a %d-byte input", res.GoodBytes, len(in))
		}
		if res.Torn != (res.GoodBytes < int64(len(in))) {
			t.Fatalf("Torn %v with %d of %d bytes good", res.Torn, res.GoodBytes, len(in))
		}
		again, _ := frame(t, got)
		if !bytes.Equal(again, in[:res.GoodBytes]) {
			t.Fatalf("re-appended records differ from the %d-byte good prefix", res.GoodBytes)
		}
	})
}

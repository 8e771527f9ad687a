package msg

import "testing"

func benchPayload() Map {
	aps := Map{}
	for _, k := range []string{"aa:01", "aa:02", "aa:03", "aa:04", "aa:05", "aa:06"} {
		aps[k] = 0.73
	}
	return Map{"t": 1338508800000.0, "aps": aps, "samples": 42.0}
}

// BenchmarkEncodeBinary, BenchmarkDecodeBinary and BenchmarkEncodeJSON time
// the codec ops TestRawAllocations pins, on a sensor reading.
func BenchmarkEncodeBinary(b *testing.B) {
	encodeBinary, _, _ := codecOps(sensorReading())
	benchOp(b, encodeBinary)
}

func BenchmarkDecodeBinary(b *testing.B) {
	_, decodeBinary, _ := codecOps(sensorReading())
	benchOp(b, decodeBinary)
}

func BenchmarkEncodeJSON(b *testing.B) {
	_, _, encodeJSON := codecOps(sensorReading())
	benchOp(b, encodeJSON)
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkClone(b *testing.B) {
	m := benchPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Clone(m)
	}
}

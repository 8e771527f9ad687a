package msg

import "testing"

func benchPayload() Map {
	aps := Map{}
	for _, k := range []string{"aa:01", "aa:02", "aa:03", "aa:04", "aa:05", "aa:06"} {
		aps[k] = 0.73
	}
	return Map{"t": 1338508800000.0, "aps": aps, "samples": 42.0}
}

func BenchmarkEncodeJSON(b *testing.B) {
	m := benchPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeJSON(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClone(b *testing.B) {
	m := benchPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Clone(m)
	}
}

package msg

import (
	"fmt"
	"testing"
)

func benchPayload() Map {
	aps := Map{}
	for _, k := range []string{"aa:01", "aa:02", "aa:03", "aa:04", "aa:05", "aa:06"} {
		aps[k] = 0.73
	}
	return Map{"t": 1338508800000.0, "aps": aps, "samples": 42.0}
}

// BenchmarkEncodeBinary, BenchmarkDecodeBinary and BenchmarkEncodeJSON time
// the codec ops TestRawAllocations pins, on a sensor reading; the encoding
// benchmark also times EncodeBinary on a 4-key battery sample and a 20-AP
// Wi-Fi scan, the messages the benchmark's workloads publish.
func BenchmarkEncodeBinary(b *testing.B) {
	encodeBinary, _, _ := codecOps(sensorReading())
	b.Run("append", func(b *testing.B) { benchOp(b, encodeBinary) })
	aps := make([]Value, 20)
	for i := range aps {
		aps[i] = Map{"bssid": fmt.Sprintf("02:1b:77:49:54:%02x", i), "ssid": fmt.Sprintf("net-%d", i), "rssi": float64(-90 + i)}
	}
	for _, tc := range []struct {
		name string
		m    Map
	}{
		{"sample", Map{"n": 7.0, "level": 80.0, "voltage": 3.9, "charging": true}},
		{"scan20", Map{"timestamp": 1.7e12, "aps": aps}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchOp(b, func() {
				if _, err := EncodeBinary(tc.m); err != nil {
					b.Fatal(err)
				}
			})
		})
	}
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

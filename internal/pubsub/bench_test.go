package pubsub

import (
	"testing"

	"pogo/internal/msg"
)

func BenchmarkPublishOneSubscriber(b *testing.B) {
	br := New()
	br.Subscribe("ch", nil, func(Event) {})
	payload := msg.Map{"voltage": 4.1, "level": 0.9, "timestamp": 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Publish("ch", payload)
	}
}

func BenchmarkPublishFanOut16(b *testing.B) {
	br := New()
	for i := 0; i < 16; i++ {
		br.Subscribe("ch", nil, func(Event) {})
	}
	payload := msg.Map{"n": 1.0}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		br.Publish("ch", payload)
	}
}

func BenchmarkSubscribeRelease(b *testing.B) {
	br := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sub := br.Subscribe("ch", nil, func(Event) {})
		sub.Close()
	}
}

// BenchmarkPublishFanOut1k and BenchmarkPublishFanOut1kPrefrozen time the
// broker at the paper's deployment scale, a collector-side channel with
// ~1000 device proxies subscribed: the ops TestPublishAllocations pins.
func BenchmarkPublishFanOut1k(b *testing.B) {
	publish, _ := fanout(1000)
	benchOp(b, publish)
}

func BenchmarkPublishFanOut1kPrefrozen(b *testing.B) {
	_, publishRaw := fanout(1000)
	benchOp(b, publishRaw)
}

func benchOp(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

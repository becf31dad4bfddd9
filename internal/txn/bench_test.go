package txn

import (
	"fmt"
	"testing"
)

func BenchmarkKVPutCommit(b *testing.B) {
	var log Log
	payload := make([]byte, 128)
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Commit(Write{Key: fmt.Sprintf("k%d", i%1024), Val: payload})
	}
}

func BenchmarkRecovery(b *testing.B) {
	var log Log
	for i := 0; i < 2000; i++ {
		key := fmt.Sprintf("k%d", i%256)
		if i%7 == 0 {
			log.Commit(Write{Key: key})
			continue
		}
		log.Commit(Write{Key: key, Val: []byte{byte(i)}})
	}
	b.ResetTimer()
	var live map[string][]byte
	for i := 0; i < b.N; i++ {
		live = log.Live()
	}
	if len(live) == 0 {
		b.Fatal("recovery produced nothing")
	}
}

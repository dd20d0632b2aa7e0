package osmem

import (
	"testing"

	"hybridtlb/internal/mapping"
)

// gupsPages is the gups footprint, 8 GiB of 4 KiB pages, the largest of
// the evaluation's workloads.
const gupsPages = 2 << 20

// BenchmarkInstallChunks measures InstallChunks of a gups-size
// medium-contiguity mapping (Table 4: chunks of 1-512 pages) under the
// base, THP and anchor policies: the OS-side install every simulation
// cell pays before its first access. The allocations are the table pages
// and the install's one sorted copy of the chunk list.
func BenchmarkInstallChunks(b *testing.B) {
	cl, err := mapping.Generate(mapping.Medium, mapping.Config{FootprintPages: gupsPages, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		pol  Policy
	}{
		{"base", Policy{}},
		{"thp", Policy{THP: true}},
		{"anchor", Policy{THP: true, Anchors: true}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := NewProcess(c.pol).InstallChunks(cl, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

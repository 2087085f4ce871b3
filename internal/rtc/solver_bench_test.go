package rtc

import "testing"

// Micro-benchmarks comparing the breakpoint-driven solvers against the
// dense tick-scan references at a 1e5-tick horizon (the order of the
// horizons ComputeSizing uses for the paper's applications).

const benchHorizon = Time(100000)

var (
	benchHealthy = PJD{Period: 900, Jitter: 250, MinDist: 100}
	benchFaulty  = PJD{Period: 1100, Jitter: 400}
)

func BenchmarkSupDiff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := supDiff(benchFaulty.Upper(), benchHealthy.Lower(), benchHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseSupDiff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DenseSupDiff(benchFaulty.Upper(), benchHealthy.Lower(), benchHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDetectionBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DetectionBound(benchHealthy.Lower(), Zero, 4, 0, benchHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDenseDetectionBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := DenseDetectionBound(benchHealthy.Lower(), Zero, 4, benchHorizon); err != nil {
			b.Fatal(err)
		}
	}
}

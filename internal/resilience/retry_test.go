package resilience

import (
	"context"
	"testing"
	"time"
)

func TestRetryBudgetDrainsAndRefills(t *testing.T) {
	b := NewRetryBudget()
	for i := 0; i < budgetMax; i++ {
		if !b.Spend() {
			t.Fatalf("a full budget must grant its %d tokens; refused the %dth", budgetMax, i+1)
		}
	}
	if b.Spend() {
		t.Fatal("an empty budget must refuse")
	}
	for i := 0; i < 5; i++ {
		b.Earn() // half a token in all
	}
	if b.Spend() {
		t.Fatal("half a token must not grant a retry")
	}
	for i := 0; i < 6; i++ {
		b.Earn()
	}
	if !b.Spend() {
		t.Fatal("earned tokens must grant retries again")
	}
}

func TestRetryBudgetCapsAtMax(t *testing.T) {
	b := NewRetryBudget()
	for i := 0; i < 1000; i++ {
		b.Earn()
	}
	granted := 0
	for b.Spend() {
		granted++
	}
	if granted != budgetMax {
		t.Fatalf("granted %d retries after 1000 successes, want the cap %d", granted, budgetMax)
	}
}

func TestBackoffGrowsAndCaps(t *testing.T) {
	prevLow := time.Duration(0)
	for attempt := 0; attempt < 10; attempt++ {
		target := min(backoffBase<<attempt, backoffMax)
		for i := 0; i < 50; i++ {
			if d := Backoff(attempt); d < target/2 || d > target {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, d, target/2, target)
			}
		}
		if low := target / 2; low < prevLow {
			t.Fatalf("attempt %d: backoff floor shrank", attempt)
		} else {
			prevLow = low
		}
	}
	if prevLow != backoffMax/2 {
		t.Fatalf("backoff floor reached %v, want the cap's half %v", prevLow, backoffMax/2)
	}
}

func TestBackoffJitterVaries(t *testing.T) {
	seen := map[time.Duration]bool{}
	for i := 0; i < 32; i++ {
		seen[Backoff(0)] = true
	}
	if len(seen) < 16 {
		t.Fatalf("only %d distinct jittered delays in 32 draws", len(seen))
	}
}

func TestSleepHonoursContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := Sleep(ctx, time.Second)
	if err == nil {
		t.Fatal("sleep must surface the context error")
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("sleep ignored the deadline, took %v", elapsed)
	}
	if err := Sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatalf("plain sleep errored: %v", err)
	}
}

package sim

import (
	"errors"
	"reflect"
	"testing"
)

// TestRunRounds drives the round scheduler with a fake round that returns
// synthetic counts — a fixed number of failures per block — and checks the
// schedule itself: the grid it walks, the budget clamp, the stop rule and
// error propagation.
func TestRunRounds(t *testing.T) {
	type call struct{ k, b0, b1 int }
	errRound := errors.New("round failed")
	cases := []struct {
		name          string
		budget        int
		target        float64
		failsPerBlock int64
		failAt        int // round index whose call errors; -1 never

		wantCalls []call
		wantShots int64
		wantErr   error
	}{
		{
			name:   "budget not a multiple of BlockShots",
			budget: 2*BlocksPerRound*BlockShots + 100, failsPerBlock: 1, failAt: -1,
			wantCalls: []call{{0, 0, BlocksPerRound}, {1, BlocksPerRound, 2 * BlocksPerRound}, {2, 2 * BlocksPerRound, 2*BlocksPerRound + 1}},
			wantShots: 2*BlocksPerRound*BlockShots + 100,
		},
		{
			name:   "target 0 runs every block",
			budget: 3 * BlocksPerRound * BlockShots, failsPerBlock: BlockShots / 2, failAt: -1,
			wantCalls: []call{{0, 0, BlocksPerRound}, {1, BlocksPerRound, 2 * BlocksPerRound}, {2, 2 * BlocksPerRound, 3 * BlocksPerRound}},
			wantShots: 3 * BlocksPerRound * BlockShots,
		},
		{
			// Half the shots fail: after one round RSE = sqrt(0.5/65536),
			// far below the target.
			name:   "stop in the first round",
			budget: 10 * BlocksPerRound * BlockShots, target: 0.1, failsPerBlock: BlockShots / 2, failAt: -1,
			wantCalls: []call{{0, 0, BlocksPerRound}},
			wantShots: BlocksPerRound * BlockShots,
		},
		{
			name:   "no failures never meets a target",
			budget: BlocksPerRound*BlockShots + 1, target: 0.5, failsPerBlock: 0, failAt: -1,
			wantCalls: []call{{0, 0, BlocksPerRound}, {1, BlocksPerRound, BlocksPerRound + 1}},
			wantShots: BlocksPerRound*BlockShots + 1,
		},
		{
			name:   "round error stops the run",
			budget: 4 * BlocksPerRound * BlockShots, failsPerBlock: 1, failAt: 1,
			wantCalls: []call{{0, 0, BlocksPerRound}, {1, BlocksPerRound, 2 * BlocksPerRound}},
			wantShots: BlocksPerRound * BlockShots,
			wantErr:   errRound,
		},
		{
			name:   "single short block",
			budget: 63, failsPerBlock: 1, failAt: -1,
			wantCalls: []call{{0, 0, 1}},
			wantShots: 63,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls []call
			round := func(k, b0, b1 int) (Counts, error) {
				calls = append(calls, call{k, b0, b1})
				if k == tc.failAt {
					return Counts{}, errRound
				}
				var c Counts
				for b := b0; b < b1; b++ {
					n := int64(ShotsInBlock(b, tc.budget))
					c.Shots += n
					c.Fails += min(tc.failsPerBlock, n)
				}
				return c, nil
			}
			pooled, err := RunRounds(tc.budget, tc.target, round)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if !reflect.DeepEqual(calls, tc.wantCalls) {
				t.Fatalf("rounds %v, want %v", calls, tc.wantCalls)
			}
			if pooled.Shots != tc.wantShots || pooled.Shots > int64(tc.budget) {
				t.Fatalf("pooled %d shots, want %d (budget %d)", pooled.Shots, tc.wantShots, tc.budget)
			}
			// Rounds are numbered 0, 1, ... and their block ranges tile the
			// grid from block 0 without gaps or overlaps.
			next := 0
			for i, c := range calls {
				if c.k != i || c.b0 != next || c.b1 <= c.b0 || c.b1-c.b0 > BlocksPerRound {
					t.Fatalf("round %d = %+v does not continue the grid at block %d", i, c, next)
				}
				next = c.b1
			}
		})
	}
}

// TestShotsInBlock pins the budget clamp of the block grid: full blocks
// everywhere but the last, whose shots end exactly at the budget.
func TestShotsInBlock(t *testing.T) {
	const budget = 3*BlockShots + 17
	total := 0
	for b := 0; b*BlockShots < budget; b++ {
		n := ShotsInBlock(b, budget)
		if want := BlockShots; b < 3 && n != want {
			t.Fatalf("block %d: %d shots, want %d", b, n, want)
		}
		total += n
	}
	if total != budget {
		t.Fatalf("blocks sum to %d shots, want the budget %d", total, budget)
	}
}

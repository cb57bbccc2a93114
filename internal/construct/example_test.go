package construct_test

import (
	"context"
	"fmt"

	"repro/internal/construct"
)

func ExampleBestPlan() {
	// The Theorem 2.20 headline: an explicit bisection of B_{2^15} with
	// capacity strictly below the folklore value n, verified virtually.
	p, err := construct.BestPlan(1 << 15)
	if err != nil {
		fmt.Println(err)
		return
	}
	capacity, sizeA, err := p.EvaluateVirtualParallelCtx(context.Background(), 1)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("capacity:", capacity)
	fmt.Println("folklore:", 1<<15)
	fmt.Println("balanced:", sizeA == (1<<15)*(p.Dim+1)/2)
	// Output:
	// capacity: 30720
	// folklore: 32768
	// balanced: true
}

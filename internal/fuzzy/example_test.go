package fuzzy_test

import (
	"fmt"

	"repro/internal/fuzzy"
)

// The paper's Fig. 1: "medium young" is fully possible between 25 and 30;
// 24 belongs to it with degree 0.8, and "about 35" matches it with 0.5.
func ExampleEq() {
	mediumYoung := fuzzy.Trap(20, 25, 30, 35)
	about35 := fuzzy.Tri(30, 35, 40)

	fmt.Println(fuzzy.Eq(fuzzy.Crisp(24), mediumYoung))
	fmt.Println(fuzzy.Eq(about35, mediumYoung))
	// Output:
	// 0.8
	// 0.5
}

func ExampleTrapezoid_Mu() {
	mediumYoung := fuzzy.Trap(20, 25, 30, 35)
	fmt.Println(mediumYoung.Mu(27))
	fmt.Println(mediumYoung.Mu(24))
	fmt.Println(mediumYoung.Mu(19))
	// Output:
	// 1
	// 0.8
	// 0
}

func ExampleAggregate() {
	set := []fuzzy.Trapezoid{
		fuzzy.Tri(30, 40, 50), // about 40K
		fuzzy.Trap(64, 74, 120, 120),
	}
	max, _ := fuzzy.Aggregate(fuzzy.AggMax, set)
	count, _ := fuzzy.Aggregate(fuzzy.AggCount, set)
	fmt.Println(max)
	fmt.Println(count)
	// Output:
	// TRAP(64,74,120,120)
	// 2
}

// Approximate equality under a crisp band is the classic band join.
func ExampleApproxEq() {
	band := fuzzy.Interval(-5, 5)
	fmt.Println(fuzzy.ApproxEq(fuzzy.Crisp(10), fuzzy.Crisp(13), band))
	fmt.Println(fuzzy.ApproxEq(fuzzy.Crisp(10), fuzzy.Crisp(16), band))
	// Output:
	// 1
	// 0
}

package rtree

// SetLeafChoiceCheck installs fn to see every leaf-parent ChooseSubtree
// decision and returns the function that removes it.
func SetLeafChoiceCheck(fn func(order []int, k, tried int, term func(i, j int) float64, pick int)) (remove func()) {
	leafChoiceCheck = fn
	return func() { leafChoiceCheck = nil }
}

package graph

// Components labels every node with the id of its connected component
// (component ids are dense, assigned in order of the smallest node in
// each component) and returns the labels along with the component count.
func Components(g *Graph) (labels []int32, count int) {
	n := g.N()
	labels = make([]int32, n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int32
	next := int32(0)
	for s := int32(0); s < int32(n); s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = next
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			u := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, v := range g.Neighbors(u) {
				if labels[v] == -1 {
					labels[v] = next
					queue = append(queue, v)
				}
			}
		}
		next++
	}
	return labels, int(next)
}

package radio

import (
	"fmt"
	"sort"

	"wlanmcast/internal/geom"
)

// The paper assumes "the radio channels of the neighboring APs are
// configured such that they do not interfere", pointing at 802.11a's 12
// non-overlapping channels in US/Canada. AssignChannels realizes that
// assumption: it colors the AP interference graph greedily
// (largest-degree-first, a.k.a. Welsh-Powell) so that APs within
// interference range receive distinct channels whenever the channel
// budget allows.

// ChannelAssignment is the result of coloring the AP interference graph.
type ChannelAssignment struct {
	// Channels[i] is the channel index (1-based) assigned to AP i.
	Channels []int
	// Conflicts lists AP index pairs that ended up sharing a channel
	// despite being within interference range (only possible when the
	// graph's chromatic number exceeds the available channel count).
	Conflicts [][2]int
}

// AssignChannels colors APs located at pts so that any two APs closer
// than interferenceRange meters get different channels, using at most
// numChannels channels. It returns an error for non-positive inputs.
func AssignChannels(pts []geom.Point, interferenceRange float64, numChannels int) (*ChannelAssignment, error) {
	if numChannels < 1 {
		return nil, fmt.Errorf("radio: need at least one channel, got %d", numChannels)
	}
	if interferenceRange < 0 {
		return nil, fmt.Errorf("radio: negative interference range %v", interferenceRange)
	}
	n := len(pts)
	adj := make([][]int, n)
	rr := interferenceRange * interferenceRange
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pts[i].DistSq(pts[j]) <= rr {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}

	// Welsh-Powell: color vertices in order of decreasing degree.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := len(adj[order[a]]), len(adj[order[b]])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})

	channels := make([]int, n)
	used := make([]bool, numChannels+1)
	for _, v := range order {
		for c := 1; c <= numChannels; c++ {
			used[c] = false
		}
		for _, w := range adj[v] {
			if ch := channels[w]; ch >= 1 && ch <= numChannels {
				used[ch] = true
			}
		}
		assigned := 0
		for c := 1; c <= numChannels; c++ {
			if !used[c] {
				assigned = c
				break
			}
		}
		if assigned == 0 {
			// Out of channels: reuse the channel least used among
			// neighbors to spread the damage.
			counts := make([]int, numChannels+1)
			for _, w := range adj[v] {
				if ch := channels[w]; ch >= 1 {
					counts[ch]++
				}
			}
			assigned = 1
			for c := 2; c <= numChannels; c++ {
				if counts[c] < counts[assigned] {
					assigned = c
				}
			}
		}
		channels[v] = assigned
	}

	out := &ChannelAssignment{Channels: channels}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if channels[i] == channels[j] && pts[i].DistSq(pts[j]) <= rr {
				out.Conflicts = append(out.Conflicts, [2]int{i, j})
			}
		}
	}
	return out, nil
}

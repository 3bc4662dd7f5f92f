package core

import (
	"cmp"
	"slices"

	"wlanmcast/internal/radio"
	"wlanmcast/internal/setcover"
	"wlanmcast/internal/wlan"
)

// SetInfo maps one covering set back to the WLAN decision it encodes:
// "AP transmits Session at PHY rate Rate". This is the reduction of
// Theorems 1, 3 and 5 — each subset corresponds to an AP, a
// transmission rate, and a multicast session; its cost is the load of
// that transmission; its elements are the users of that session that
// can decode it.
type SetInfo struct {
	AP      int
	Session int
	Rate    radio.Mbps
}

// BuildInstance reduces network n to a covering instance. When grouped
// is true every AP becomes a group whose budget is the AP's Budget
// field (the MNU/BLA form); otherwise sets carry no group (the MLA /
// plain set-cover form).
//
// Dominated sets are pruned: if lowering the transmission rate does
// not reach any additional user of the session, the slower (costlier)
// set is dropped. This keeps the reduction exact while shrinking it.
//
// The sets of one (AP, session) pair are nested, so their Elems are
// prefixes of one shared array: callers must treat Elems as read-only.
func BuildInstance(n *wlan.Network, grouped bool) (*setcover.Instance, []SetInfo) {
	in := &setcover.Instance{NumElements: n.NumUsers()}
	if grouped {
		in.NumGroups = n.NumAPs()
		in.Budgets = make([]float64, n.NumAPs())
		for a := range in.Budgets {
			in.Budgets[a] = n.APs[a].Budget
		}
	}
	var infos []SetInfo
	type member struct {
		user int
		rate radio.Mbps
	}
	// Users reachable from the current AP, bucketed by session, with
	// the rate the AP would use toward each. The buckets are reused
	// from AP to AP; touched lists the non-empty ones.
	bySession := make([][]member, n.NumSessions())
	var touched []int
	for a := 0; a < n.NumAPs(); a++ {
		for _, s := range touched {
			bySession[s] = bySession[s][:0]
		}
		touched = touched[:0]
		for _, u := range n.Coverage(a) {
			r, ok := n.TxRate(a, u)
			if !ok {
				continue
			}
			s := n.UserSession(u)
			if len(bySession[s]) == 0 {
				touched = append(touched, s)
			}
			bySession[s] = append(bySession[s], member{user: u, rate: r})
		}
		slices.Sort(touched) // deterministic set order
		for _, s := range touched {
			members := bySession[s]
			// Sort members by descending rate; walking down the rate
			// ladder, each new distinct rate yields one set covering
			// every member at or above it. Those sets are nested
			// prefixes of one users array; each prefix's capacity
			// ends at its length, so nothing can append into the next.
			slices.SortFunc(members, func(x, y member) int {
				if x.rate != y.rate {
					return cmp.Compare(y.rate, x.rate)
				}
				return cmp.Compare(x.user, y.user)
			})
			users := make([]int, len(members))
			for k, m := range members {
				users[k] = m.user
			}
			for i := 0; i < len(members); {
				r := members[i].rate
				// Advance past everyone sharing this rate.
				j := i
				for j < len(members) && members[j].rate == r {
					j++
				}
				set := setcover.Set{
					Group: setcover.NoGroup,
					Cost:  n.SessionLoad(s, r),
					Elems: users[:j:j],
				}
				if grouped {
					set.Group = a
				}
				in.Sets = append(in.Sets, set)
				infos = append(infos, SetInfo{AP: a, Session: s, Rate: r})
				i = j
			}
		}
	}
	return in, infos
}

// ApplyPicks converts selected covering sets back into an association:
// walking the picks in selection order, every not-yet-associated user
// of a set joins the set's AP. Because every user in a set can decode
// the set's rate, the AP's realized per-session transmission rate is
// at least the modeled one, so realized loads never exceed the
// covering costs.
func ApplyPicks(n *wlan.Network, in *setcover.Instance, infos []SetInfo, picked []int) *wlan.Assoc {
	assoc := wlan.NewAssoc(n.NumUsers())
	for _, idx := range picked {
		ap := infos[idx].AP
		for _, u := range in.Sets[idx].Elems {
			if assoc.APOf(u) == wlan.Unassociated {
				assoc.Associate(u, ap)
			}
		}
	}
	return assoc
}

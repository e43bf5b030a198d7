"""Walk through the data layer: parse edge lists and an adoption log,
assemble the candidate-network stack, and print the usual sanity stats.

Everything here runs on small inline text fixtures, so the script doubles
as a format reference for the CSV inputs the CLI consumes.
"""

from __future__ import annotations

import numpy as np

from adoptnet.data import (
    NetworkStack,
    dataset_stats,
    load_adoptions,
    load_network_edge_list,
    normalize_network,
    popularity_counts,
)

NUM_USERS = 6
NUM_APPS = 4

# --- candidate networks -------------------------------------------------
# `src,dst,weight` lines; the weight column is optional and `#` starts a
# comment.  Direction does not matter: under the default `sum` mode the two
# directions accumulate, `max` keeps the larger entry, and `strict` insists
# the file already lists both directions consistently.
CALL_GRAPH = """
# caller,callee,minutes
0,1,12.5
1,0,3.0
1,2,7.0
2,3,1.5
4,5,9.0
"""

PROXIMITY = """
0,1
0,2
1,2
3,4
"""

calls = load_network_edge_list(CALL_GRAPH, NUM_USERS, symmetrize="sum", name="calls")
proximity = load_network_edge_list(PROXIMITY, NUM_USERS, name="proximity")

print("== networks ==")
for g in (calls, proximity):
    degrees = (g.weights > 0).sum(axis=1)
    print(f"{g.name:>9}: {int(degrees.sum() // 2)} edges, "
          f"max degree {int(degrees.max())}, total weight {g.weights.sum() / 2:.1f}")

# Heterogeneous scales across candidate networks are common (minutes vs.
# contact counts here).  The fit is invariant to per-network rescaling, but
# normalized weights keep the fitted coefficients comparable to each other.
calls_n = normalize_network(calls, mode="max")
print(f"normalized '{calls_n.name}' max weight: {calls_n.weights.max():.1f}")

# --- adoption log --------------------------------------------------------
# `user,app[,timestamp]` lines.  Exact duplicates collapse; conflicting
# timestamps for the same pair are rejected.
ADOPTIONS = """
0,0,10.0
1,0,11.5
2,0,14.0
0,1,20.0
4,2,5.0
5,2,6.0
1,3,8.0
"""

adoptions = load_adoptions(ADOPTIONS, NUM_USERS, NUM_APPS)

print("\n== adoptions ==")
stats = dataset_stats(adoptions)
print(f"{stats.num_users} users x {stats.num_apps} apps, "
      f"mean apps per user {stats.mean_apps_per_user:.2f} "
      f"(exp activity rate {stats.exp_rate:.2f})")
print(f"adopter-count histogram (count: apps): {stats.users_per_app}")
print(f"activity histogram (count: users): {stats.apps_per_user}")

# --- the stack -----------------------------------------------------------
# The model consumes one NetworkStack of candidate networks.  Its exogenous
# channel, one popularity value per app, is counted from the adoptions a fit
# or a score sees: each app's adopters among the evidence users.  Over every
# user, that is popularity_counts.
stack = NetworkStack(networks=(calls_n, proximity))
print("\n== stack ==")
print(f"{stack.num_networks} candidate networks over {stack.num_users} users")
print(f"popularity channel (adopters per app): {popularity_counts(adoptions)}")

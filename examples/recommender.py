"""Build a movie recommender with the collaborative-filtering stack.

Generates a Netflix-like power-law ratings matrix (the paper's Section
4.1.2 generator), factorizes it with the native SGD (Gemulla diagonal
blocks) on a simulated 4-node cluster, demonstrates the paper's
SGD-vs-GD convergence gap, and prints top recommendations for a user.

Run:  python examples/recommender.py
"""

import numpy as np

from repro.algorithms.registry import runner
from repro.cluster import Cluster, paper_cluster
from repro.datagen import netflix_like_ratings

collaborative_filtering = runner("collaborative_filtering", "native")


def main():
    print("Generating power-law ratings (RMAT -> fold -> degree filter)...")
    ratings = netflix_like_ratings(scale=12, num_items=256, seed=7)
    print(f"  {ratings.num_users:,} users x {ratings.num_items:,} items, "
          f"{ratings.num_ratings:,} ratings\n")

    print("Training with SGD (native, 4 simulated nodes)...")
    sgd = collaborative_filtering(
        ratings, Cluster(paper_cluster(4), enforce_memory=False),
        hidden_dim=32, iterations=15, method="sgd", gamma0=0.02,
        step_decay=0.97, seed=0,
    )
    print("Training with GD (what most frameworks are limited to)...")
    gd = collaborative_filtering(
        ratings, Cluster(paper_cluster(4), enforce_memory=False),
        hidden_dim=32, iterations=15, method="gd", gamma0=0.002,
        step_decay=0.97, seed=0,
    )

    print("\nTraining RMSE per iteration (SGD vs GD):")
    for i, (s, g) in enumerate(zip(sgd.extras["rmse_curve"],
                                   gd.extras["rmse_curve"])):
        bar = "#" * int(s * 20)
        print(f"  iter {i + 1:>2}: SGD {s:.4f}  GD {g:.4f}  {bar}")
    print("\nSGD reaches in a couple of iterations what GD needs dozens "
          "for — the paper's ~40x convergence gap (Section 3.2).")

    p_factors, q_factors = sgd.values
    user = int(np.argmax(ratings.user_degrees()))
    scores = q_factors @ p_factors[user]
    seen = set(ratings.items[ratings.users == user].tolist())
    recommendations = [int(i) for i in np.argsort(scores)[::-1]
                       if int(i) not in seen][:5]
    print(f"\nHeaviest user (#{user}, {ratings.user_degrees()[user]} "
          f"ratings) — top-5 unseen items: {recommendations}")
    print(f"\nSimulated training time: {sgd.total_time_s:.3f}s "
          f"({sgd.metrics.bytes_sent_per_node / 1e6:.1f} MB/node of "
          "factor rotations on the wire)")


if __name__ == "__main__":
    main()

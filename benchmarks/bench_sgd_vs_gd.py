"""Section 3.2's convergence study: SGD vs GD iterations to a fixed RMSE.

"For the Netflix dataset, given a fixed convergence criterion, SGD
converges in about 40x fewer iterations than GD."
"""

from repro.harness import sgd_vs_gd
from repro.harness.fidelity import assert_rows


def test_sgd_vs_gd(regenerate):
    result = regenerate(sgd_vs_gd)
    print()
    print("SGD vs GD on the Netflix proxy "
          f"(target RMSE {result['target_rmse']:.4f}):")
    print(f"  SGD: {result['sgd']} iterations")
    print(f"  GD:  {result['gd']} iterations")
    print(f"  ratio: {result['ratio']:.1f}x fewer iterations for SGD")

    # Our chunked-SGD substitution blunts the paper's ratio (a
    # documented gap) but must keep its direction.
    assert_rows("sgd_vs_gd", result)
    assert result["sgd"] < result["gd"]

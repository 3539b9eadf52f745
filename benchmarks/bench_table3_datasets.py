"""Table 3: real-world and largest synthetic datasets (proxy inventory)."""

from repro.harness import ARTIFACTS, table3


def test_table3(regenerate):
    rows = regenerate(table3)
    print()
    print(ARTIFACTS["table3"].text(rows))

    by_name = {row["dataset"]: row for row in rows}
    # All eight Table 3 datasets present.
    for name in ("facebook", "wikipedia", "livejournal", "netflix",
                 "twitter", "yahoo_music", "synthetic_graph500",
                 "synthetic_collaborative"):
        assert name in by_name
        assert by_name[name]["proxy_edges"] > 0
    # Paper edge counts quoted exactly.
    assert by_name["twitter"]["paper_edges"] == 1_468_365_182
    assert by_name["netflix"]["paper_edges"] == 99_072_112
    # Twitter proxy is the largest graph proxy, as in the paper.
    graphs = [row for row in rows if "users" not in row["proxy_size"]]
    assert max(graphs, key=lambda r: r["proxy_edges"])["dataset"] in (
        "twitter",
    )

"""Tests for the tie-break ablation experiment."""

from repro.experiments.tiebreak_ablation import (
    POLICIES,
    render,
    tiebreak_ablation,
)


class TestTieBreakAblation:
    def test_rows_cover_policies(self):
        rows = tiebreak_ablation(num_random=4)
        assert len(rows) == 2
        for row in rows:
            assert set(row.lengths) == set(POLICIES)

    def test_append_wins_on_random_population(self):
        rows = tiebreak_ablation(num_random=8)
        random_row = rows[1].lengths
        assert random_row["append"] <= random_row["first"]

    def test_policies_stay_close_on_paper_benchmarks(self):
        rows = tiebreak_ablation(num_random=2)
        paper_row = rows[0].lengths
        spread = max(paper_row.values()) - min(paper_row.values())
        assert spread <= 3  # tie-breaks move single steps, not structure

    def test_render(self):
        text = render(tiebreak_ablation(num_random=2))
        assert "tie-break" in text
        assert "append" in text

    def test_default_run_pinned(self):
        # The totals the ablation printed when it carried its own copy
        # of ThreadedGraph._select; the position_key hook must not move
        # them.
        rows = tiebreak_ablation()
        assert [row.lengths for row in rows] == [
            {"first": 187, "append": 188, "round-robin": 187},
            {"first": 289, "append": 286, "round-robin": 296},
        ]

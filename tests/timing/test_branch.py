"""The gshare branch predictor: learning, accuracy accounting, counter
saturation."""

from repro.timing.branch import HISTORY_BITS, BranchPredictor


def test_learns_always_taken():
    p = BranchPredictor()
    for _ in range(100):
        p.predict_and_update(12, True)
    # after warmup, a steady branch is predicted essentially always
    assert p.accuracy > 0.95


def test_learns_always_not_taken():
    p = BranchPredictor()
    for _ in range(100):
        p.predict_and_update(12, False)
    assert p.accuracy > 0.9


def test_gshare_learns_alternating_pattern():
    """Global history lets gshare nail a strict alternation, which one
    per-PC counter predicts at most half right."""
    p = BranchPredictor()
    outcome = True
    for _ in range(400):
        p.predict_and_update(9, outcome)
        outcome = not outcome
    assert p.accuracy > 0.9


def test_accuracy_of_fresh_predictor_is_one():
    assert BranchPredictor().accuracy == 1.0


def test_lookups_and_mispredicts_are_counted():
    p = BranchPredictor()
    assert p.predict_and_update(5, True) is True    # counters start taken
    assert p.predict_and_update(5, False) is False
    assert (p.lookups, p.mispredicts) == (2, 1)


def test_counters_saturate():
    """A counter trained taken tolerates one not-taken but not two.

    A steady taken branch fills the history with ones, so its outcome at
    that history always trains the same counter; ``HISTORY_BITS`` taken
    outcomes after any other outcome bring the history back to all ones.
    """
    p = BranchPredictor()
    for _ in range(HISTORY_BITS + 8):
        p.predict_and_update(3, True)

    def at_all_ones_history(taken):
        correct = p.predict_and_update(3, taken)
        for _ in range(HISTORY_BITS):
            assert p.predict_and_update(3, True)
        return correct

    assert at_all_ones_history(False) is False  # 3 -> 2
    assert at_all_ones_history(False) is False  # still predicted taken: 2 -> 1
    # saturated at 3, two not-taken outcomes flipped the prediction;
    # an unbounded counter would still predict taken here
    assert at_all_ones_history(True) is False


def test_distinct_pcs_use_distinct_counters():
    p = BranchPredictor()
    for _ in range(100):
        p.predict_and_update(1, True)
        p.predict_and_update(2, False)
    assert p.accuracy > 0.95

"""Direct unit tests for ``BackoffScheduler``'s ban/threshold algebra.

The scheduler is normally exercised only through ``run_saturation``;
these tests pin its arithmetic — threshold doubling, ban expiry at
exactly ``ban_length`` iterations, and ``any_banned`` across a mix of
rules.
"""

from __future__ import annotations

from repro.egraph.runner import BackoffScheduler, RuleScheduler
from repro.egraph.rewrite import parse_rewrite

_COMM = parse_rewrite("comm", "(+ ?a ?b) => (+ ?b ?a)")
_ASSOC = parse_rewrite("assoc", "(+ (+ ?a ?b) ?c) => (+ ?a (+ ?b ?c))")


def test_threshold_doubles_per_ban():
    sched = BackoffScheduler(match_limit=10, ban_length=1)
    assert sched.threshold(_COMM) == 10
    sched.record(_COMM, iteration=0, n_matches=11)
    assert sched.threshold(_COMM) == 20
    # The next overflow must beat the *doubled* threshold.
    sched.record(_COMM, iteration=3, n_matches=20)
    assert sched.threshold(_COMM) == 20
    sched.record(_COMM, iteration=4, n_matches=21)
    assert sched.threshold(_COMM) == 40


def test_at_threshold_is_not_overflow():
    sched = BackoffScheduler(match_limit=10, ban_length=2)
    sched.record(_COMM, iteration=0, n_matches=10)
    assert sched.can_apply(_COMM, 1)
    assert not sched.any_banned(1)
    assert sched.threshold(_COMM) == 10


def test_ban_expires_after_exactly_ban_length_iterations():
    sched = BackoffScheduler(match_limit=5, ban_length=3)
    sched.record(_COMM, iteration=2, n_matches=6)
    # Banned for iterations 3, 4, 5; eligible again at 6.
    for iteration in (3, 4, 5):
        assert not sched.can_apply(_COMM, iteration), iteration
        assert sched.any_banned(iteration)
    assert sched.can_apply(_COMM, 6)
    assert not sched.any_banned(6)


def test_any_banned_tracks_mixed_rules():
    sched = BackoffScheduler(match_limit=5, ban_length=1)
    sched.record(_COMM, iteration=0, n_matches=6)   # banned for iter 1
    assert not sched.can_apply(_COMM, 1)
    assert sched.can_apply(_ASSOC, 1)
    assert sched.any_banned(1)
    sched.record(_ASSOC, iteration=1, n_matches=9)  # banned for iter 2
    # comm's ban has expired at 2 but assoc's is live.
    assert sched.can_apply(_COMM, 2)
    assert not sched.can_apply(_ASSOC, 2)
    assert sched.any_banned(2)
    assert not sched.any_banned(3)


def test_rules_are_tracked_independently():
    sched = BackoffScheduler(match_limit=8, ban_length=2)
    sched.record(_COMM, iteration=0, n_matches=9)
    assert sched.threshold(_COMM) == 16
    assert sched.threshold(_ASSOC) == 8
    assert sched.can_apply(_ASSOC, 1)


def test_base_scheduler_is_permissive():
    sched = RuleScheduler()
    assert sched.can_apply(_COMM, 0)
    sched.record(_COMM, 0, 10**9)
    assert sched.can_apply(_COMM, 1)
    assert not sched.any_banned(1)
    assert sched.threshold(_COMM) >= 10**9


def test_backoff_never_disables():
    sched = BackoffScheduler(match_limit=1, ban_length=1)
    sched.record(_COMM, iteration=0, n_matches=100)
    # A ban only ever lasts ban_length iterations.
    assert sched.can_apply(_COMM, 2)

"""The block driver the tests step sessions with.

It plays a session's actions round by round, as `harness.run_match` does:
each round's feedback comes from a callback, a block is sent its feedback
added in round order onto the action's `start`, and only a block that ran
in full is observed.
"""


def drive(session, rounds, feedback):
    """Step `session` for `rounds` rounds; feedback(t, action) answers round
    t of `action`: a reward in bandit mode, an array of query values in
    experts mode.  Returns the bet and the query tuple of every round."""
    bets, query_log = [], []
    t = 0
    while t < rounds:
        action = session.choose()
        n = min(action.rounds, rounds - t)
        total = action.start
        for s in range(t, t + n):
            total += feedback(s, action)
        bets.extend([action.bet] * n)
        query_log.extend([action.queries] * n)
        t += n
        if n == action.rounds:
            session.observe(total)
    return bets, query_log

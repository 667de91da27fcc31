"""The block driver the tests step sessions with.

It plays a session's actions round by round, as `harness.run_match` does:
each round's feedback comes from a callback, a block is sent its feedback
added in round order, and only a block that ran in full is observed.  An
action with `play` plays its rounds through `Pulls`, which answer them
from the same callback.
"""

from banditlab.bandits import Action


class Pulls:
    """The pulls of `bandits.Action` over a callback: feedback(t, Action(x))
    is the reward of x in round t.  Bets are recorded in `bets`; the
    rewards and means the phase writes are kept by round."""

    def __init__(self, feedback, bets):
        self.feedback = feedback
        self.bets = bets
        self.rewards, self.means = {}, {}

    def arm(self, x):
        action = Action(x)
        return (lambda t: self.feedback(t, action)), 0.0

    def block(self, x, t, n, start):
        action = Action(x)
        for s in range(t, t + n):
            self.rewards[s] = reward = self.feedback(s, action)
            start += reward
        self.bets.extend([x] * n)
        return start


def drive(session, rounds, feedback):
    """Step `session` for `rounds` rounds; feedback(t, action) answers round
    t of `action`: a reward in bandit mode, an array of query values in
    experts mode.  Returns the bet and the query tuple of every round."""
    bets, query_log = [], []
    t = 0
    while t < rounds:
        action = session.choose()
        n = min(action.rounds, rounds - t)
        if action.play is not None:
            total = action.play(Pulls(feedback, bets), t, n)
        else:
            total = 0.0
            for s in range(t, t + n):
                total += feedback(s, action)
            bets.extend([action.bet] * n)
        query_log.extend([action.queries] * n)
        t += n
        if n == action.rounds:
            session.observe(total)
    return bets, query_log

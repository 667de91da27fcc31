"""The block driver the tests step sessions with.

It plays a session's actions as `harness.run_match` does, each through
`bandits.play`: each round's feedback comes from a callback, a block is
sent its feedback added in round order, and only a block that ran in
full is observed.  `Pulls` answer every round from the same callback.
"""

from banditlab.bandits import Action, play


class Pulls:
    """The pulls of `bandits.Action` over a callback: feedback(t, action)
    is the reward of the action's bet in round t, or in experts mode the
    array of its query values.  Bets are recorded in `bets`; the bandit
    rewards the blocks write are kept by round."""

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

    def experts(self, bet, queries, t, n):
        action = Action(bet, queries)
        sums = 0.0
        for s in range(t, t + n):
            sums += self.feedback(s, action)
        self.bets.extend([bet] * n)
        return sums


def drive(session, rounds, feedback):
    """Step `session` for `rounds` rounds; feedback(t, action) answers round
    t of `action`: a reward in bandit mode, an array of query values in
    experts mode.  Returns the bet and the query tuple of every round."""
    bets, query_log = [], []
    pulls = Pulls(feedback, bets)
    t = 0
    while t < rounds:
        action = session.choose()
        n = min(action.rounds, rounds - t)
        total = play(action, pulls, t, n)
        query_log.extend([action.queries] * n)
        t += n
        if n == action.rounds:
            session.observe(total)
    return bets, query_log

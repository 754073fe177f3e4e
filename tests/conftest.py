from hypothesis import settings

# Property tests draw the same examples on every run: a Tier-1 result must
# not depend on which examples a random seed or a saved database picked.
settings.register_profile(
    "derandomized", derandomize=True, database=None, max_examples=60, deadline=None
)

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

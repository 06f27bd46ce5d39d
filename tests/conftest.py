from hypothesis import settings

# Property tests draw the same examples on every run, with no time limit
# per example and no example database, so the suite stays deterministic.
settings.register_profile("dampsim", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("dampsim")

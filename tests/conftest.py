"""One hypothesis profile for every property test: derandomized, so a run
draws the same examples every time, and without a deadline, since the first
example of a growth builds its Yudovich hull."""

from hypothesis import settings

settings.register_profile("osgood", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("osgood")

from hypothesis import settings

# the same examples on every run, so a tier-1 result does not depend on luck
settings.register_profile("zenoslh", derandomize=True, deadline=None)
settings.load_profile("zenoslh")

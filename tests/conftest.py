from hypothesis import settings

# `pytest --hypothesis-profile=ci` runs ten times the default examples of
# every property test that does not fix its own count
settings.register_profile("ci", max_examples=1000)

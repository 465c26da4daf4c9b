from hypothesis import HealthCheck, settings

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    deadline=None,
)
# A longer derandomized search, chosen with --hypothesis-profile=thorough.
settings.register_profile("thorough", settings.get_profile("det"), max_examples=400)
settings.load_profile("det")

import signal

import pytest

#: Wall-clock limit of one test call.  The slowest test, the 50k-row
#: recall, takes ~110 s at 4 CPUs and ~500 s pinned to one CPU; a Ray task
#: that never returns would otherwise stall the whole run until its outer
#: time limit, so such a test fails on its own and the run goes on.
TEST_TIME_LIMIT_S = 900


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running scale test (50k-row recall)")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    def expire(signum, frame):
        raise TimeoutError(
            f"{item.nodeid} ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    import ray
    import ray.data

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=4, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    yield
    ray.shutdown()

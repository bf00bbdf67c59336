# Convenience targets for the Reducing-Peeling reproduction.

.PHONY: install test bench examples quicktest lint clean

install:
	pip install -e .

test:
	pytest tests/

quicktest:
	pytest tests/ -x -q -p no:randomly -k "not hypothesis"

# reprolint (the repo's own contract checker, rules RL001-RL008) always
# runs; ruff and mypy run when installed and are skipped otherwise, so
# `make lint` works in the minimal container while CI (which installs
# both) gets the full gate.
# All four project trees are linted strictly in one uncached pass; the
# committed lint-baseline.json absorbs the accepted pre-existing advice.
lint:
	PYTHONPATH=src python -m repro.lint src tests benchmarks examples --strict
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests; \
	else \
		echo "ruff not installed; skipping"; \
	fi
	@if command -v mypy >/dev/null 2>&1; then \
		mypy -p repro.core -p repro.perf; \
	else \
		echo "mypy not installed; skipping"; \
	fi

bench:
	pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/social_network_coverage.py
	python examples/wireless_scheduling.py
	python examples/kernelize_and_boost.py
	python examples/upper_bound_certificates.py
	python examples/dynamic_scheduling.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +

# Convenience targets for the Morph reproduction.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test bench bench-suite profile figures examples all clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m repro bench

bench-suite:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

profile:
	$(PYTHON) -m repro profile

figures:
	$(PYTHON) -m repro all

examples:
	set -e; for example in examples/*.py; do $(PYTHON) $$example; done

all: test bench-suite

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis .benchmarks *.egg-info src/*.egg-info

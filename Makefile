# Anception reproduction — developer entry points.

PYTHON ?= python

.PHONY: test bench perfbench frames chaos-parity examples all-experiments lint trace-demo chaos-demo profile-demo coverage clean

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The benchmark's own checks: its unit tests, then one short traced run
# per workload (exits 1 on any pin, determinism or output-check miss).
PERFBENCH_WORKLOADS = sync_redirect async_windows app_macro

perfbench:
	$(PYTHON) -m pytest perfbench/tests -q
	for w in $(PERFBENCH_WORKLOADS); do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 1 --trace 1 || exit 1; \
	done

# Each frame budget's headroom: name, measured frames, budget; then the
# crc32 calls and the stdlib frames each dormant shape takes, and the
# sqlite row budget's C calls and frames per page of rows.
frames:
	PYTHONPATH=src $(PYTHON) -m tests.perf.test_frame_budget
	PYTHONPATH=src $(PYTHON) -m tests.perf.test_crc_budget
	PYTHONPATH=src $(PYTHON) -m tests.perf.test_stdlib_frame_budget
	PYTHONPATH=src $(PYTHON) -m tests.perf.test_sqlite_row_budget

# Chaos-report parity with a base commit: every CI chaos run and a
# per-site sweep, on this checkout and on BASE=<ref>; exits 1 naming
# each run that differs and each site that fired in no run.
chaos-parity:
	$(PYTHON) benchmarks/chaos_parity.py $(BASE)

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/exploit_walkthrough.py
	PYTHONPATH=src $(PYTHON) examples/security_study.py
	PYTHONPATH=src $(PYTHON) examples/secure_storage.py
	PYTHONPATH=src $(PYTHON) examples/media_pipeline.py
	PYTHONPATH=src $(PYTHON) examples/reproduce_paper.py

all-experiments:
	$(PYTHON) -m repro.cli all

lint:
	$(PYTHON) -m compileall -q src tests benchmarks
	@if $(PYTHON) -m ruff --version >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; compileall only"; \
	fi

trace-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli trace table1 --format chrome --out table1-trace.json
	PYTHONPATH=src $(PYTHON) -m repro.cli trace table1 --format ftrace
	PYTHONPATH=src $(PYTHON) -m repro.cli metrics table1

chaos-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos fileops --seed 7 --out chaos-a.json --trace-out chaos-trace.json
	PYTHONPATH=src $(PYTHON) -m repro.cli chaos fileops --seed 7 --out chaos-b.json
	cmp chaos-a.json chaos-b.json && echo "chaos run is byte-identical across replays"

profile-demo:
	PYTHONPATH=src $(PYTHON) -m repro.cli trace writeburst --out writeburst-trace.json
	PYTHONPATH=src $(PYTHON) -m repro.cli report writeburst-trace.json

coverage:
	PYTHONPATH=src $(PYTHON) -m pytest -q --cov=repro --cov-report=term-missing --cov-fail-under=85

clean:
	find . -name __pycache__ -type d -exec rm -rf {} +
	rm -rf .pytest_cache .hypothesis *.egg-info
	rm -f chaos-a.json chaos-b.json chaos-trace.json table1-trace.json
	rm -f writeburst-trace.json
	rm -rf .perfbench_out

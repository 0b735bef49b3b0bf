GO ?= go

.PHONY: build loc test race vet lint vsfs-lint lint-schema fmt-check bench bench-baseline bench-gate serve fuzz fuzz-native faults check golden

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Print the non-test Go line count of the tracked files, outside the
# benchmark module and testdata: the whole repo, then per package. It
# only prints; nothing gates on it.
LOC_FILES = git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^benchmark/' | grep -v '/testdata/'
loc:
	@$(LOC_FILES) | xargs cat | wc -l
	@$(LOC_FILES) | xargs wc -l | awk '$$2 != "total" { d = $$2; if (!sub("/[^/]*$$", "", d)) d = "."; n[d] += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d }' | sort -k2

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

lint: vet
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2024.1.1 ./...
	$(GO) run ./cmd/vsfs-lint ./...

# Run only the in-repo analyzer suite (no network; staticcheck needs
# the proxy, vsfs-lint never does).
vsfs-lint:
	$(GO) run ./cmd/vsfs-lint ./...

# Regenerate the reportcontract golden after deliberately appending
# report/ledger fields (the contract is append-only; see DESIGN.md §14).
lint-schema:
	$(GO) run ./cmd/vsfs-lint -update-schema

# Run the memory-safety checker suite over the corpus (text report).
# vsfs exits 5 when findings are reported, which is the point here.
check:
	@$(GO) build -o /tmp/vsfs-make ./cmd/vsfs
	@for f in testdata/checks/*.c; do \
		echo "== $$f"; /tmp/vsfs-make -check $$f; \
		st=$$?; if [ $$st -ne 0 ] && [ $$st -ne 5 ]; then exit $$st; fi; \
	done

# Regenerate the corpus golden files after a deliberate output change.
golden:
	$(GO) test -run TestChecksCorpus -update .

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

bench:
	$(GO) test -run=NONE -bench=. -benchmem ./internal/server/

# Regenerate the committed bench baseline after a deliberate perf change
# (all 15 profiles; takes a few minutes).
bench-baseline:
	$(GO) run ./cmd/vsfs-bench -json > BENCH_BASELINE.json

# The CI regression gate, locally: exits 1 past the thresholds.
bench-gate:
	$(GO) run ./cmd/vsfs-bench -bench du,nano -json \
		-compare BENCH_BASELINE.json -threshold 200 -mem-threshold 25 > /dev/null

serve:
	$(GO) run ./cmd/vsfs-serve -addr :8080

fuzz:
	$(GO) run ./cmd/vsfs-fuzz -seeds 500 -minimize

fuzz-native:
	$(GO) test -run NONE -fuzz FuzzSparseLaws -fuzztime 30s -fuzzminimizetime 1s ./internal/bitset/
	$(GO) test -run NONE -fuzz FuzzUnionInPlace -fuzztime 30s -fuzzminimizetime 1s ./internal/bitset/
	$(GO) test -run NONE -fuzz FuzzInternerStability -fuzztime 30s -fuzzminimizetime 1s ./internal/bitset/
	$(GO) test -run NONE -fuzz FuzzStoreLaws -fuzztime 30s -fuzzminimizetime 1s ./internal/bitset/
	$(GO) test -run NONE -fuzz FuzzMeldLaws -fuzztime 30s -fuzzminimizetime 1s ./internal/meld/
	$(GO) test -run NONE -fuzz FuzzParse -fuzztime 30s -fuzzminimizetime 1s ./internal/irparse/
	$(GO) test -run NONE -fuzz FuzzCompile -fuzztime 30s -fuzzminimizetime 1s ./internal/lang/
	$(GO) test -run NONE -fuzz FuzzReportJSON -fuzztime 10s -fuzzminimizetime 1s .

faults:
	$(GO) test -race -run 'Fault|Shed|Degrad|Repeat|Overload' ./...
	$(GO) run ./cmd/vsfs-fuzz -faults -skip-resolve -seeds 50

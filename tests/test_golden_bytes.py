"""Golden bytes: the exact output of every command form, one row per argv.

A row holds the argv's exit code and, for a run that prints, the SHA-256 of
its stdout and of each ``--out`` artifact but ``manifest.json``, whose argv
holds the temporary directory (the replay test in ``test_cli.py`` covers the
manifest).  Each such argv runs twice, without and with ``--out``, and must
print the same stdout both times.  For a refused run the row holds its one
stderr line, with the input directory written as ``{dir}``.

A change that moves bytes on purpose updates the rows it moves and names each
in CHANGES.md.  The digests hold for the numpy and scipy versions and the libm
they were recorded with (numpy 2.4.6, scipy 1.17.1, glibc on x86-64); on
another stack they are regenerated in a change that says so.
"""

import hashlib

import pytest

from hindsight_options import MarketSpec, save_market_spec
from hindsight_options.cli import main


def _write_inputs(directory):
    """The input files the argvs name as ``{dir}/<file>``."""
    rows = "".join(f"{i},{100 + (37 * i) % 23 - 11},{50 + (11 * i) % 7}\n" for i in range(200))
    (directory / "px.csv").write_text("time,a,b\n" + rows)
    for name, text in (("nan", "0.0,100\n1.0,nan\n"), ("inf", "0.0,100\n1.0,inf\n"),
                       ("nan_time", "0.0,100\nnan,200\n"), ("doubling", "0,100\n1,200\n2,400\n"),
                       ("wide_time", "-1e308,100\n1e308,200\n")):
        (directory / f"{name}.csv").write_text("time,px\n" + text)
    three = MarketSpec(n=3, mu=[0.05, 0.07, 0.04], sigma=[0.3, 0.45, 0.2],
                       corr=[[1.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 1.0]],
                       rate=0.02, s0=[1.0, 1.0, 1.0])
    save_market_spec(three, str(directory / "three.spec"))
    save_market_spec(MarketSpec.single(mu=50.0, sigma=0.2, rate=0.0), str(directory / "fast.spec"))


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    _write_inputs(directory)
    return directory


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


DEEP = "--sigma 0.1 --s 1e30 --t 0.01 --T 2"
DEEP_LATTICE = "lattice --N 2000 --u 1.02 --d 0.98 --rper 0"
TINY_RATIO = "--sigma 0.2 --r -1600 --mu -1600 --s0 1e300 --s 1e-300 --t 0.5 --T 1"
TINY = "--sigma 0.2 --r -1600 --mu -1600 --s0 1e300 --s 3.6e-48 --t 0.5"
TINY_CURVE = "curve --what payoff --r -1600 --s0 1e300 --t 0.5 --lo 1e-48 --hi 4e-48 --count 3"
IV = "--price=1.5 --s=105 --s0=100 --t=0.5 --T=1 --r=0.03"

# argv -> (exit code, {"stdout" or artifact: sha256}) for a run that prints,
# or (exit code, its one stderr line) for a refused run.
ROWS = {
    # the command forms
    'price --sigma 0.2 --r 0.03 --s0 100 --s 105 --t 0.5 --T 1': (0, {
        "stdout": "90f347ad74ec11f4c3ce839147e6171fd90c7a4ffd2206b3a0085e21fbc1d455",
        "quote.json": "90f347ad74ec11f4c3ce839147e6171fd90c7a4ffd2206b3a0085e21fbc1d455"}),
    'price --mode unlevered --sigma 0.3 --s 1.2 --t 1 --T 2': (0, {
        "stdout": "6889b0ce4865312c5a3c898bed196f825f512e1cfbf4d534028821e84c7b4ef8",
        "quote.json": "6889b0ce4865312c5a3c898bed196f825f512e1cfbf4d534028821e84c7b4ef8"}),
    'price --config {dir}/three.spec --s 1.1,0.9,1.05 --t 1 --T 2': (0, {
        "stdout": "2a7604b71b178aed3f3c257849a99962edb7a413dd79e3d0d90e5c800a003c80",
        "quote.json": "2a7604b71b178aed3f3c257849a99962edb7a413dd79e3d0d90e5c800a003c80"}),
    'greeks --sigma 0.2 --mu 0.05 --s 1.1 --t 0.5 --T 1': (0, {
        "stdout": "353c84a154d4a4e229dd6886f5369212fea60cdc71abfb79423169d202c600fc",
        "greeks.json": "353c84a154d4a4e229dd6886f5369212fea60cdc71abfb79423169d202c600fc"}),
    'iv --price 1.51 --s 105 --s0 100 --t 0.5 --T 1': (0, {
        "stdout": "9248a75c4c29e59097e65477df0fc8a4321c75910f3725947b1061b84ad46d56",
        "iv.json": "9248a75c4c29e59097e65477df0fc8a4321c75910f3725947b1061b84ad46d56"}),
    'hedge --sigma 0.3 --r 0.02 --mu 0.07 --t0 1 --T 2 --steps 2000 --seed 11': (0, {
        "stdout": "2afb12fb3dd61a2b460b5fab621a6118104290004667e3d086b3af4af150d072",
        "ledger.csv": "f13602d9913d38c68d07d2e9ce9bf42abd56bc64989ff0fec52121a6a69fa2ca",
        "summary.json": "2afb12fb3dd61a2b460b5fab621a6118104290004667e3d086b3af4af150d072"}),
    'hedge --mode unlevered --sigma 0.3 --r 0.02 --t0 1 --T 2 --steps 2000 --seed 5': (0, {
        "stdout": "f19e7078cdaa64e5ceb3a7034e460bdb3ae30e5455707fcbe32ddfde32839ebd",
        "ledger.csv": "5b13ea29b45975202ed7c18d4f014f94310e744c450c7323e07cd84ba38c869b",
        "summary.json": "f19e7078cdaa64e5ceb3a7034e460bdb3ae30e5455707fcbe32ddfde32839ebd"}),
    'hedge --config {dir}/three.spec --t0 0.5 --T 1 --steps 500 --seed 3': (0, {
        "stdout": "4c22e31c55cc266859bf6609b7c7fca9e410bc2b6450246acac4fd7e23cc4823",
        "ledger.csv": "6bff24edcd2292248c1dac7f5cf89500c45877a210f313e0f46a8cea5bba2d2a",
        "summary.json": "4c22e31c55cc266859bf6609b7c7fca9e410bc2b6450246acac4fd7e23cc4823"}),
    'simulate --scenario sim1 --T 40 --paths 20 --seed 2': (0, {
        "stdout": "e89f32fd84c5bcf15b3a93591e821296fea5a718b0bbd62eec47018dc6ff7641",
        "paths.csv": "7483df54a3703b53b1ac01f37abac48ed5e8f3b44ae8977daf057eb53edfeb53",
        "summary.json": "e89f32fd84c5bcf15b3a93591e821296fea5a718b0bbd62eec47018dc6ff7641"}),
    'simulate --scenario sim3 --T 20 --warmup 1 --paths 20 --seed 4': (0, {
        "stdout": "a27807b20ac827e0d37b92d1f8277a7e923f417139ac9d227562dec266b18e91",
        "paths.csv": "e811351ba1661d4fb6c55bbb43754b706fade032e40ed948c656e378ec7b7b09",
        "summary.json": "a27807b20ac827e0d37b92d1f8277a7e923f417139ac9d227562dec266b18e91"}),
    'lattice --what demon --N 200 --p 0.5 --seed 17': (0, {
        "stdout": "0f162be2b65b270817bca95636073378a59fa5ee7c846e86040e54538422aa4f",
        "demon.csv": "0f162be2b65b270817bca95636073378a59fa5ee7c846e86040e54538422aa4f"}),
    'lattice --what demon --N 1000 --p 0.5 --seed 17': (0, {
        "stdout": "df89ca465e953dd2ce7b1766e163ba25a2c37001c9051629da808d120165b545",
        "demon.csv": "df89ca465e953dd2ce7b1766e163ba25a2c37001c9051629da808d120165b545"}),
    'lattice --N 60 --k 20 --n 30 --u 1.2 --d 0.9 --rper 0.01': (0, {
        "stdout": "7aad5b49df51bbafbb43a2ca5c773a63690b2b26bcf5fa1e40311a07f067d12b",
        "price.json": "7aad5b49df51bbafbb43a2ca5c773a63690b2b26bcf5fa1e40311a07f067d12b"}),
    'lattice --what payoff --N 40 --j 13 --mode unlevered': (0, {
        "stdout": "c45d42af3136ac4ef42e09c2f26130dfb09e3a087a7fbc6335ed890a177a556e",
        "payoff.json": "c45d42af3136ac4ef42e09c2f26130dfb09e3a087a7fbc6335ed890a177a556e"}),
    'backtest --prices {dir}/px.csv --b 0.5,0.3 --interval 2 --rate 0.001': (0, {
        "stdout": "bf246bee2a65e541ee18a249529d998b394741eecf4fd48c2e103724df523a8b",
        "summary.json": "bf246bee2a65e541ee18a249529d998b394741eecf4fd48c2e103724df523a8b",
        "wealth.csv": "416ed7f801afeac2e22cb0c3cc99368dbfcdf5fe8e85ffaa7bc46e6f83e36827"}),
    'curve --what payoff --sigmas 0.2,0.4 --count 25': (0, {
        "stdout": "46a4fc69d47b7e99167e7b8b8873009cc9bb9f0c87035949c0efe1fb4f65f637",
        "payoff_curve.csv": "46a4fc69d47b7e99167e7b8b8873009cc9bb9f0c87035949c0efe1fb4f65f637"}),
    'curve --what regret --lo 1 --hi 50 --count 25': (0, {
        "stdout": "eea4d89a6776a9fbc49271820a80e4b4bbaa033489010c21408d6adbd70e6963",
        "regret_curve.csv": "eea4d89a6776a9fbc49271820a80e4b4bbaa033489010c21408d6adbd70e6963"}),
    'verify --n 1 --states 2 --paths 20000 --seed 3': (0, {
        "stdout": "49fe7e67477e2a6c8960febd429f0e649f3cb45ea79054fe9435b582b512fc59",
        "verify.csv": "49fe7e67477e2a6c8960febd429f0e649f3cb45ea79054fe9435b582b512fc59"}),
    'verify --n 3 --states 2 --paths 20000 --seed 3': (0, {
        "stdout": "1fefb5dd8c550d6677842878d7a993fa710ee54c8e6843bec6bd3949ffb0fb30",
        "verify.csv": "1fefb5dd8c550d6677842878d7a993fa710ee54c8e6843bec6bd3949ffb0fb30"}),
    # unrepresentable or non-finite quotes
    f'price {DEEP}': (3,
        'error: result is not representable in float64; use log_price_levered'),
    f'greeks {DEEP}': (3,
        'error: result is not representable in float64; use log_price_levered'),
    f'price {TINY_RATIO}': (3,
        'error: result is not representable in float64; use log_price_levered'),
    f'price --mode unlevered {TINY_RATIO}': (3,
        'error: result is not representable in float64; use log_price_unlevered'),
    'greeks --sigma 0.2 --s 1e-200 --s0 1e-200 --t 0.5 --T 1': (3,
        'error: result is not representable in float64; use log_price_levered'),
    'price --mode unlevered --sigma 0.1 --r 400 --s 1 --t 1.8 --T 2': (3,
        'error: result is not representable in float64; use log_price_unlevered'),
    'price --sigma 0.1 --s 1 --t 1 --T nan': (3,
        'error: need finite T and t > 0 (the price diverges as t -> 0+)'),
    f'{DEEP_LATTICE} --what price --k 2000 --n 2000': (3,
        'error: result is not representable in float64; use lattice_log_price'),
    f'{DEEP_LATTICE} --what payoff --j 2000': (3,
        'error: result is not representable in float64; use lattice_log_payoff'),
    'lattice --what demon --N 3000 --p 0.9 --seed 1': (3,
        'error: result is not representable in float64; use lattice_log_price'),
    'price --mode levered --sigma 1e300 --s 1.1 --t 0.5 --T 1': (3,
        'error: sigma must be at most 1.3407807929942596e+154: its square overflows float64'),
    'price --mode levered --sigma 1e154 --s 1.1 --t 0.5 --T 1': (3,
        'error: result is not representable in float64; use log_price_levered'),
    'price --mode unlevered --sigma 1e300 --s 1.1 --t 0.5 --T 1': (3,
        'error: sigma must be at most 1.3407807929942596e+154: its square overflows float64'),
    'price --mode unlevered --sigma 1e154 --s 1.1 --t 0.5 --T 1': (3,
        'error: result is not representable in float64; use log_price_unlevered'),
    'price --sigma 1e-300 --s 2 --s0 1 --t 1 --T 2': (3,
        "error: z' R^{-1} z is not a finite float64 at this state; not even log_price_levered can represent it"),
    'price --mode levered --sigma 1e-300 --s 2 --s0 1 --t 1e-300 --T 2': (3,
        'error: z-score is not a finite float64 at this state: it overflows, or sigma sqrt(t) underflows to 0'),
    'price --mode unlevered --sigma 1e-300 --s 2 --s0 1 --t 1e-300 --T 2': (3,
        'error: z-score is not a finite float64 at this state: it overflows, or sigma sqrt(t) underflows to 0'),
    'price --r=-1e300 --mu 0 --sigma 1 --s 1 --t 1e10 --T 2e10': (3,
        'error: z-score is not a finite float64 at this state: it overflows, or sigma sqrt(t) underflows to 0'),
    'price --sigma 1e-320 --s 1 --t 2 --T 3.7 --r 1.99 --mu 2.99': (3,
        'error: z-score is not a finite float64 at this state: it overflows, or sigma sqrt(t) underflows to 0'),
    'curve --what regret --sigmas 1e262 --lo 5e-324 --hi 5e-324 --count 1': (3,
        'error: the regret rate is not representable in float64'),
    'hedge --sigma 1e-160 --mu 0.05 --t0 0.5 --T 1 --steps 4 --seed 1': (3,
        'error: result is not representable in float64; use log_price_levered'),
    'hedge --r 1e300 --mu 0 --sigma 0.2 --t0 0.5 --T 1 --steps 4 --seed 1': (3,
        'error: hedge wealth is not representable in float64'),
    'lattice --N 5 --u inf --d 0.5 --what payoff --j 1': (3,
        'error: need 0 < d < 1 + r_per < u < inf'),
    'lattice --N 5 --u inf --d 0.5 --what price --k 1 --n 1': (3,
        'error: need 0 < d < 1 + r_per < u < inf'),
    # underflowed quotes
    f'price {TINY} --T 1': (3,
        'error: result is not representable in float64; use log_price_levered'),
    f'price {TINY} --T 1.5e69': (3,
        'error: result is not representable in float64; use log_price_levered'),
    f'price --mode unlevered {TINY} --T 1': (3,
        'error: result is not representable in float64; use log_price_unlevered'),
    f'greeks {TINY} --T 1': (3,
        'error: result is not representable in float64; use log_price_levered'),
    f'{TINY_CURVE} --mode levered': (3,
        'error: result is not representable in float64; use log_intrinsic_value'),
    f'{TINY_CURVE} --mode unlevered': (3,
        'error: result is not representable in float64; use log_intrinsic_value'),
    # implied volatilities
    f'iv {IV} --price=nan': (3,
        'error: observed price, s, s0 and rate must be finite'),
    f'iv {IV} --price=inf': (3,
        'error: observed price, s, s0 and rate must be finite'),
    f'iv {IV} --s=inf': (3,
        'error: observed price, s, s0 and rate must be finite'),
    f'iv {IV} --s=nan': (3,
        'error: observed price, s, s0 and rate must be finite'),
    f'iv {IV} --s0=inf': (3,
        'error: observed price, s, s0 and rate must be finite'),
    f'iv {IV} --s0=-inf': (3,
        'error: observed price, s, s0 and rate must be finite'),
    f'iv {IV} --r=nan': (3,
        'error: observed price, s, s0 and rate must be finite'),
    'iv --price 1.2 --s 105 --s0 100 --t 0.5 --T 1 --r 0.03': (3,
        'error: observed price 1.2 is below the minimum rational price sqrt(T/t) * exp(r*t) = 1.4355866633216658'),
    'iv --price 0 --s 1 --s0 1 --t 0.5 --T 1 --r -1600': (3,
        'error: observed price must be strictly positive'),
    # backtests
    'backtest --prices {dir}/nan.csv --b 0.5': (3,
        'error: {dir}/nan.csv:3: column 2: prices must be finite, got nan'),
    'backtest --prices {dir}/inf.csv --b 0.5': (3,
        'error: {dir}/inf.csv:3: column 2: prices must be finite, got inf'),
    'backtest --prices {dir}/nan_time.csv --b 0.5': (3,
        'error: {dir}/nan_time.csv:3: column 1: times must be finite, got nan'),
    'backtest --prices {dir}/doubling.csv --b 1e200': (3,
        'error: backtest wealth is not representable in float64'),
    'backtest --prices {dir}/wide_time.csv --b 0.5': (3,
        'error: {dir}/wide_time.csv:3: column 1: time span overflows float64'),
    'backtest --prices {dir}/px.csv --b nan,0': (3,
        'error: fractions must be finite'),
    'backtest --prices {dir}/px.csv --b 0.5,0 --rate inf': (3,
        'error: rate must be finite'),
    'backtest --prices {dir}/missing.csv --b 0.5': (4,
        "i/o error: [Errno 2] No such file or directory: '{dir}/missing.csv'"),
    # paths, hedges and sizes that overflow or do not fit
    'simulate --scenario custom --config {dir}/fast.spec --T 20 --warmup 1 --steps-per-year 1 --paths 2': (3,
        'error: simulated prices must be strictly positive and finite'),
    'hedge --mu 50 --sigma 0.2 --r 0 --t0 1 --T 20 --steps 4 --seed 1': (3,
        'error: simulated prices must be strictly positive and finite'),
    'hedge --mu 1e308 --sigma 0.2 --r 0 --t0 1 --T 20 --steps 4 --seed 1': (3,
        'error: simulated prices must be strictly positive and finite'),
    'hedge --mu 0 --sigma 0.2 --r 0 --t0 1 --T 2 --steps 1000000000000 --seed 1': (3,
        'error: 1 paths of 1000000000000 steps do not fit in memory'),
    'curve --what regret --count 1000000000000000': (3,
        'error: out of memory: Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type float64'),
    'curve --what payoff --count 1000000000000000': (3,
        'error: out of memory: Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type float64'),
    'lattice --what demon --N 1000000000000000': (3,
        'error: out of memory: Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type float64'),
    'simulate --scenario sim1 --paths 1000000000000000': (3,
        'error: out of memory: Unable to allocate 7.11 PiB for an array with shape (1000000000000000,) and data type float64'),
    'verify --paths 1000000000000000': (3,
        'error: at most 10,000,000,000 paths per call, got 1,000,000,000,000,000'),
    # curve, spec and flag refusals
    'curve --what payoff --sigmas -0.3': (3,
        'error: volatilities must be strictly positive'),
    'curve --what payoff --hi inf': (3,
        'error: --lo and --hi must be finite'),
    'curve --what regret --lo nan': (3,
        'error: --lo and --hi must be finite'),
    'curve --what regret --hi inf': (3,
        'error: --lo and --hi must be finite'),
    'curve --what regret --sigmas nan': (3,
        'error: sigma must be positive and finite'),
    'price --config {dir}/three.spec --sigma 0.5 --s 1.1,0.9,1.05 --t 1 --T 2': (3,
        'error: single-asset flags cannot override a multi-asset config'),
    'price --s 1 --t 0.5 --T 1': (3,
        'error: either --config or --sigma is required'),
    'greeks --sigma 0.2 --s 1,2 --t 0.5 --T 1': (3,
        'error: expected 1 prices in --s, got 2'),
    'price --sigma 0.2 --s= --t 0.5 --T 1': (3,
        'error: expected 1 prices in --s, got 0'),
    'simulate --scenario custom --paths 2': (3,
        'error: custom scenario requires --config'),
    'lattice --what demon --N 5 --u nan --out {dir}/run': (3,
        'error: Out of range float values are not JSON compliant: nan'),
    # seeds and state counts
    'lattice --what demon --N 10 --seed -1': (3,
        'error: seed must be nonnegative'),
    'verify --seed -1': (3,
        'error: seed must be nonnegative'),
    'verify --states 0': (3,
        'error: --states must be >= 1'),
    'verify --states -1': (3,
        'error: --states must be >= 1'),
}


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", list(ROWS))
def test_each_command_keeps_its_bytes(argv, inputs, tmp_path, capsys):
    code, want = ROWS[argv]
    args = [arg.format(dir=inputs) for arg in argv.split()]
    got_code, out, err = _run(capsys, args)
    if isinstance(want, str):
        assert (got_code, out, err.replace(str(inputs), "{dir}")) == (code, "", want + "\n")
        return
    assert (got_code, err) == (code, "")
    got_code, out_too, err = _run(capsys, [*args, "--out", str(tmp_path / "out")])
    assert (got_code, err, out_too) == (code, "", out)
    files = {path.name: _digest(path.read_bytes()) for path in (tmp_path / "out").iterdir()
             if path.name != "manifest.json"}
    assert {"stdout": _digest(out.encode()), **files} == want

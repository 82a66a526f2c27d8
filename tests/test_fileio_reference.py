"""Frozen reference results for every fileio reader.

Every CSV schema is read by one table reader, and params and state files by
one key=value record reader.  The values pinned here were captured from the
per-schema row loops that reader replaced, so they hold it to the same
behaviour:

* valid files: each reader's result, reduced to a canonical form (dates in
  ISO form, floats by their hex digits, containers with their type and
  order), is pinned by its SHA-256;
* malformed files: the exact IngestionError message is pinned;
* CHANGED lists the malformed files whose outcome was changed on purpose,
  with what the old readers did.

A guard test requires a malformed case raising IngestionError for every
``ingest_*`` and ``*_from_file`` reader.
"""

import dataclasses
import datetime as dt
import hashlib
import json

import numpy as np
import pytest

from curveforge import fileio
from curveforge.errors import IngestionError


def _canon(obj):
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, dt.date):
        return obj.isoformat()
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, list(obj.shape), _canon(obj.tolist())]
    if dataclasses.is_dataclass(obj):
        fields = [f.name for f in dataclasses.fields(obj) if f.init]
        return [type(obj).__name__, [[n, _canon(getattr(obj, n))] for n in fields]]
    if isinstance(obj, (list, tuple)):
        return [type(obj).__name__, [_canon(x) for x in obj]]
    if isinstance(obj, dict):
        return ["dict", [[_canon(k), _canon(v)] for k, v in obj.items()]]
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    text = json.dumps(_canon(obj), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _floats(seed, n, low, high):
    rng = np.random.default_rng(seed)
    return [repr(float(v)) for v in rng.uniform(low, high, n)]


def _valid_files():
    """name -> (reader, extra args, file text) for well-formed inputs that
    exercise CRLF endings, padded cells, blank and whitespace-only lines,
    metadata lines, quoted fields, odd float spellings and row order."""
    files = {}
    d0 = dt.date(2013, 1, 7)
    prices = _floats(1, 24, 0.2, 1.0)
    rows = []
    for k in (3, 0, 5, 1, 4, 2):
        day = (d0 + dt.timedelta(weeks=k)).isoformat()
        rows.append(f"{day},S,{prices[2 * k]},2025-01-06")
        rows.append(f" {day} , L ,{prices[2 * k + 1]} , 2033-01-03 ")
    rows.insert(4, "")
    rows.insert(7, "   \t")
    files["panel"] = (
        "ingest_panel",
        (),
        "# source=reference\r\ndate,instrument_id,price,maturity\r\n"
        + "\r\n".join(rows)
        + "\r\n",
    )
    flagged = []
    for k, flag in zip((2, 0, 1), ("1", "no", "TRUE")):
        day = (d0 + dt.timedelta(weeks=k)).isoformat()
        flagged.append(f"{day},S,{prices[12 + k]},2025-01-06,{flag}")
        flagged.append(f'{day},"L",{prices[15 + k]},2033-01-03,{flag}')
    files["panel_negotiated"] = (
        "ingest_panel",
        (),
        "date,instrument_id,price,maturity,negotiated\n" + "\n".join(flagged),
    )
    taus = np.cumsum(np.random.default_rng(2).uniform(0.1, 2.0, 15))
    dfs = np.exp(-0.04 * taus)
    pillars = "".join(f"{t!r},{p!r}\n" for t, p in zip(taus.tolist(), dfs.tolist()))
    files["curve_meta"] = (
        "ingest_curve",
        (),
        "# asof=2013-01-05\n#flat_extrapolation = yes\n# a comment\n"
        "tau , discount_factor\n" + pillars,
    )
    files["curve_bare"] = (
        "ingest_curve",
        (),
        "tau,discount_factor\n0.5,0.99\n2,9e-1\n+7.0,.61\n1_0,0.5",
    )
    quotes = _floats(3, 9, 0.3, 0.99)
    files["cross_sections"] = (
        "ingest_cross_sections",
        (),
        "date,maturity_years,zero_price\n"
        f"2013-01-14,10.0,{quotes[0]}\n2013-01-07,5.0,{quotes[1]}\n"
        f"2013-01-14,1.0,{quotes[2]}\n2013-01-07,0.25,{quotes[3]}\n"
        f"2013-01-07,1e1,{quotes[4]}\n\n2013-01-21,30,{quotes[5]}\n"
        f"2013-01-14,2.5,{quotes[6]}\n2013-01-21,0.5,{quotes[7]}\n",
    )
    files["bonds_anchor"] = (
        "ingest_bonds",
        (),
        "id,face,coupon_rate,frequency,maturity,first_coupon\n"
        "CBU25,100.0,0.06,2,2025-01-06,2013-07-06\n"
        "Z30,100,0.0,0,2030-01-06,\n"
        '"B,2",1e2,0.0525,4,2021-03-15, 2013-06-15 \n',
    )
    files["bonds_plain"] = (
        "ingest_bonds",
        (),
        "id,face,coupon_rate,frequency,maturity\r\n"
        "A,100.0,0.0,0,2013-07-07\r\nB,50.5,0.031,1,2015-01-07\r\n",
    )
    files["bond_quotes"] = (
        "ingest_bond_quotes",
        (),
        "id,settlement,price\nB,2013-01-07,101.5\nA,2013-01-08, 95.125\n"
        "B,2013-01-07,1e2\n",
    )
    cells = _floats(4, 5 * 14, 0.05, 1.0)
    lines = []
    for i in range(5):
        row = cells[14 * i : 14 * (i + 1)]
        row[(3 * i) % 14] = ""
        lines.append(",".join([(d0 + dt.timedelta(days=i)).isoformat(), *row]))
    header = ",".join(fileio.SURFACE_COLUMNS)
    files["surface_dates"] = (
        "ingest_surface",
        (),
        header + "\r\n" + "\r\n".join(lines) + "\r\n",
    )
    files["surface_numeric"] = (
        "ingest_surface",
        (),
        header + "\n" + "\n".join(
            ",".join([t, *cells[14 * i : 14 * (i + 1)]])
            for i, t in enumerate(("0.0", "0.019230769230769232", "1.25"))
        ),
    )
    files["arbitrage"] = (
        "ingest_arbitrage",
        (),
        "tau_low,tau_high,p_low,p_high\r\n1.0,2.0,0.9,0.95\r\n"
        "1.0,3.0,0.9,0.99\r\n0.25,30.0,0.1,0.30000000000000004\r\n",
    )
    files["arbitrage_empty"] = (
        "ingest_arbitrage",
        (),
        "tau_low,tau_high,p_low,p_high\r\n",
    )
    files["calibration"] = (
        "ingest_calibration",
        (),
        "date,param_name,value,objective,converged\n"
        "2013-01-14,sigma,0.3071,1.5e-18,1\n"
        "2013-01-07,a,0.0813,3.2e-18,1\n"
        '2013-01-21,error,"maturities must be distinct, after asof",,0\n'
        "2013-01-07,sigma,0.0215,3.2e-18,1\n"
        "2013-01-28,sigma,0.021,1.1e-17,0\n"
        "2013-01-28,a,0.09,1.1e-17,0\n"
        "2013-02-04,error,,,0\n",
    )
    times = _floats(5, 8, 0.0, 3.0)
    factors = _floats(6, 16, -0.05, 0.05)
    for name, has_dates, two in (
        ("states_r", False, False),
        ("states_date_r", True, False),
        ("states_xy", False, True),
        ("states_date_xy", True, True),
    ):
        head = (["date"] if has_dates else []) + ["time"] + (["x", "y"] if two else ["r"])
        body = []
        for i in range(8):
            row = [(d0 + dt.timedelta(weeks=i)).isoformat()] if has_dates else []
            row += [times[i], *(factors[2 * i : 2 * i + 2] if two else factors[i : i + 1])]
            body.append(",".join(row))
        files[name] = ("ingest_states", (), ",".join(head) + "\r\n" + "\r\n".join(body) + "\r\n")
    files["params_vasicek"] = (
        "params_from_file",
        ("vasicek",),
        "# fitted\nmodel=vasicek\na=1.7051\n\n b = 0.0937 \nsigma=0.3721\n",
    )
    files["params_g2pp"] = (
        "params_from_file",
        ("g2pp",),
        "a=0.13\nb=0.3526\nsigma=0.2062\neta=0.4892\nrho=-0.99\n",
    )
    files["params_holee"] = ("params_from_file", ("holee",), "model = holee\nsigma=3.071e-1")
    files["params_hullwhite"] = (
        "params_from_file",
        ("hullwhite",),
        "sigma=0.0215\na=0.0813\nmodel=hullwhite\n",
    )
    files["state_g2pp"] = ("state_from_file", ("g2pp",), "x=0.01\ny=-0.02\nt=0.5\n")
    files["state_short"] = ("state_from_file", ("vasicek",), "# start\nr = 0.05\n")
    files["state_short_t"] = ("state_from_file", ("hullwhite",), "t=1.25\nr=0.05\n")
    files["keyvalues"] = (
        "read_keyvalues",
        (),
        "# a comment\n\nalpha = 1.5\n beta=two \nempty=\nurl=a=b\n",
    )
    return files


VALID = _valid_files()

# SHA-256 of the canonical form of each reader's result on VALID[name]
VALID_DIGESTS = {
    'panel': '9f43d75945dfdcd10ac5ac9d6ad1d8f1b303ea1abb6cb18d8c62d133c43c594f',
    'panel_negotiated': '668fcdf68637c392d97796a251cd76112dd95751bceff3c9d07477bc626c1f58',
    'curve_meta': '5aa66c698dec2634181e938be5df61540e5b83c58f46061762e4025a464d704e',
    'curve_bare': '56dec9d3bf3c42782ae5ed3e15cc812d5bbc887c1876a9f16139fb29423e81b3',
    'cross_sections': 'c5e98d78ca7a30ca53ffa39fdd54bac9ddd965fedcc9c81316b3d6c335c3e614',
    'bonds_anchor': 'a21445bd96d3fa3e08a4e64e829f2c8ed34c39cad38e60c6787e1cee16ff070f',
    'bonds_plain': '58c5ec60277e280880feaac0a53d7a8b6007ee18ce27e6b8043df2c366bd3eb6',
    'bond_quotes': '944f3827dd3e0c65d2731a848228c6150992047dc2049c583a48cb72e0b72f20',
    'surface_dates': '5e8d4ee262b0fa888402f03cefaf242ebbcc4109063b3f9c58ca21e4dc91e82b',
    'surface_numeric': '6c3e762e0033893645eafc6109ba35e5ee5839af1bfaf3f77629058114de8843',
    'arbitrage': 'a7f4d8f08c2a189492dc4c8cee5893ad75ec6dbd3bd62891c0305ff24b5e6169',
    'arbitrage_empty': '88426b60f30d4b1ef811e0e27e7128267b46c31569e2b16e0045db4d8e29bc3c',
    'calibration': 'a0fe08915e9d54cca3012ea9abfd88dec7eb024f2d66ec88a0b96d919d6360f4',
    'states_r': '5e5425f5d04c5776bc3224e54f1164c7930defb218121f59484b3a0b079107f7',
    'states_date_r': '455092397ca7e7c8736db7e3f0434002cdc09c519aa493a0bb785f1620eeea5c',
    'states_xy': '80ec2a5baced2c71fbc788019cecfe670f525d5f2dad228e33dff4540af15366',
    'states_date_xy': '3cc07a7d93b50588e66f9da83668bacbe9bb17f7612042458652bc32e1fec46f',
    'params_vasicek': 'c1768320ecf3a8ceca0777959859fad45e7edaa0b35f98b03e09931ddf3faa94',
    'params_g2pp': 'f3b23468d57fda979e67cac1e6b99d5c97e19a710204eb89090cbaa984b982a9',
    'params_holee': '30cc13113d33dbf914575e547c0b2e9d8c2b32cc69607ece3aed1f86d4c0f1a8',
    'params_hullwhite': '1591b7348e94822ecdc94e0ceff3ee1500672b59fad3715dbe64cb7e3600b473',
    'state_g2pp': 'a1beafccf1b0c794b654bb5ae1554c633aadce10939f8846b02492edbf7ac3ae',
    'state_short': '8ae4f132e2372c8adbe7505c5208852f7ad368d57e4b257e4b01e25dd75bc580',
    'state_short_t': '5ff094e909f243380c495011e962567751083af5fd2efc07aeb5a7cbaaaea43c',
    'keyvalues': '76eea5bf2eed2fdf3d501fa9dcb7cdc5a5edc121961b171e3485b45c76ffff1b',
}


def _panel(body, header="date,instrument_id,price,maturity"):
    return f"{header}\n{body}"


# (name, reader, extra args, file text): malformed inputs whose message is
# pinned in MALFORMED_MESSAGES
MALFORMED = [
    ("panel_bad_floats", "ingest_panel", (), _panel(
        "2013-01-07,Z,0.95,2020-01-01\n\n2013-01-14,Z,abc,2020-01-01\n"
        "   \n2013-01-21,Z,nan,2020-01-01\n2013-01-28,Z,-inf,2020-01-01\n"
        "2013-02-04,Z,1.5,2020-01-01\nnot-a-date,Z,0.97,2020-01-01\n"
        "2013-02-11,,0.9,2020-01-01\n2013-02-18,Z,0.9,2012-01-01\n")),
    ("panel_metadata_lines", "ingest_panel", (), "# source=x\n#\n# a=b=c\n" + _panel(
        "2013-01-07,Z,0.95,2020-01-01\n2013-01-14,Z,inf,2020-01-01\n")),
    ("panel_short_row", "ingest_panel", (), _panel(
        "2013-01-07,Z,abc,2020-01-01\n2013-01-14,Z,0.95\n2013-01-21,Z\n")),
    ("panel_long_row", "ingest_panel", (), _panel(
        "2013-01-07,Z,0.95,2020-01-01\n\n2013-01-14,Z,0.95,2020-01-01,1\n")),
    ("panel_header_mismatch", "ingest_panel", (), _panel(
        "2013-01-07,Z,0.95,2020-01-01\n", "date,id,price,maturity")),
    ("panel_header_misplaced_optional", "ingest_panel", (), _panel(
        "2013-01-07,Z,1,0.95,2020-01-01\n",
        "date,instrument_id,negotiated,price,maturity")),
    ("panel_empty_file", "ingest_panel", (), ""),
    ("panel_blank_file", "ingest_panel", (), "\n\n"),
    ("panel_only_metadata", "ingest_panel", (), "# asof=2013-01-07\n"),
    ("panel_header_only", "ingest_panel", (), _panel("")),
    ("panel_duplicates", "ingest_panel", (), _panel(
        "2013-01-07,Z,0.95,2020-01-01\n2013-01-07,Z,0.96,2020-01-01\n"
        "2013-01-14,Z,0.94,2021-01-01\n")),
    ("panel_negotiated_bad", "ingest_panel", (), _panel(
        "2013-01-07,Z,0.95,2020-01-01,1\n2013-01-07,Y,0.95,2020-01-01,0\n"
        "2013-01-14,Z,0.95,2020-01-01,maybe\n2013-01-21,Z,0.95,2020-01-01,\n",
        "date,instrument_id,price,maturity,negotiated")),
    ("curve_bad_floats", "ingest_curve", (), "# asof=2013-01-05\ntau,discount_factor\n"
        "1.0,0.96\n2.0,nan\noops,0.9\n3.0,inf\n\n4.0,1e400\n"),
    ("curve_short_long", "ingest_curve", (), "tau,discount_factor\n1.0,0.96,3\n2.0\n"),
    ("curve_header_mismatch", "ingest_curve", (), "# asof=2013-01-05\ntau;discount_factor\n"),
    ("curve_empty_file", "ingest_curve", (), ""),
    ("curve_header_only", "ingest_curve", (), "tau,discount_factor\n"),
    ("curve_duplicate_tau", "ingest_curve", (), "tau,discount_factor\n1.0,0.96\n1.0,0.95\n"),
    ("curve_out_of_order", "ingest_curve", (), "tau,discount_factor\n2.0,0.9\n1.0,0.96\n"),
    ("curve_price_range", "ingest_curve", (), "tau,discount_factor\n1.0,1.5\n"),
    ("sections_bad", "ingest_cross_sections", (), "date,maturity_years,zero_price\n"
        "2013-01-07,x,0.95\n2013-01-07,nan,0.95\n2013-01-07,-1,0.95\n"
        "2013-01-07,1.0,inf\n2013-01-07,1.0,0\n2013-01-07,2.0,0.9\n"
        "2013-01-07,2.0,0.8\n2013-13-07,1.0,0.9\n"),
    ("sections_short", "ingest_cross_sections", (), "date,maturity_years,zero_price\n"
        "2013-01-07,x,0.95\n2013-01-07,1.0\n"),
    ("sections_long", "ingest_cross_sections", (), "date,maturity_years,zero_price\n"
        "2013-01-07,1.0,0.95,\n"),
    ("sections_header", "ingest_cross_sections", (), "date,maturity,zero_price\n"),
    ("sections_empty", "ingest_cross_sections", (), "date,maturity_years,zero_price\n\n"),
    ("bonds_bad", "ingest_bonds", (), "id,face,coupon_rate,frequency,maturity,first_coupon\n"
        ",100,0.06,2,2025-01-06,\nB,abc,0.06,2,2025-01-06,\nC,100,nan,2,2025-01-06,\n"
        "D,100,0.06,two,2025-01-06,\nE,100,0.06,2,2025-01-06,2013-02-30\n"
        "F,-100,0.06,2,2025-01-06,\nG,100,0.06,2,2025-01-06,\nG,100,0.06,2,2026-01-06,\n"),
    ("bonds_short_long", "ingest_bonds", (), "id,face,coupon_rate,frequency,maturity\n"
        "A,100,0.06,2,2025-01-06,2013-07-06\n"),
    ("bonds_header", "ingest_bonds", (), "id,face,coupon,frequency,maturity\n"),
    ("bonds_empty", "ingest_bonds", (), ""),
    ("quotes_bad", "ingest_bond_quotes", (), "id,settlement,price\nB,2013-01-07,x\n"
        "B,2013-01-07,inf\nB,2013-01-07,-3.0\nB,07/01/2013,99\nB,2013-01-07,0\n"),
    ("quotes_short", "ingest_bond_quotes", (), "id,settlement,price\nB,2013-01-07\n"),
    ("quotes_header", "ingest_bond_quotes", (), "id,date,price\n"),
    ("surface_bad", "ingest_surface", (),
        ",".join(fileio.SURFACE_COLUMNS) + "\n"
        + "2013-01-07," + ",".join(["0.9"] * 13 + ["x"]) + "\n"
        + "\n" + "soon," + ",".join(["0.9"] * 14) + "\n"
        + "1.5," + ",".join(["nan"] + ["0.9"] * 13) + "\n"),
    ("surface_short", "ingest_surface", (),
        ",".join(fileio.SURFACE_COLUMNS) + "\n2013-01-07," + ",".join(["0.9"] * 13) + "\n"),
    ("surface_header", "ingest_surface", (), "date,P_1m\n2013-01-07,0.99\n"),
    ("surface_header_only", "ingest_surface", (), ",".join(fileio.SURFACE_COLUMNS) + "\r\n"),
    ("surface_empty", "ingest_surface", (), ""),
    ("arbitrage_bad", "ingest_arbitrage", (), "tau_low,tau_high,p_low,p_high\n"
        "1.0,2.0,0.9,x\n1.0,nan,0.9,0.95\n\n1.0,2.0,0.9\n"),
    ("arbitrage_bad_floats", "ingest_arbitrage", (), "tau_low,tau_high,p_low,p_high\n"
        "1.0,2.0,0.9,x\n1.0,-inf,0.9,0.95\n"),
    ("arbitrage_header", "ingest_arbitrage", (), "tau_low,tau_high,p_low\n"),
    ("arbitrage_empty", "ingest_arbitrage", (), ""),
    ("calibration_bad", "ingest_calibration", (), "date,param_name,value,objective,converged\n"
        "2013-01-07,a,0.08,1e-18,1\n2013-01-07,sigma,x,1e-18,1\n"
        "not-a-date,sigma,0.3,0,1\n2013-01-14,sigma,0.3,nan,1\n"
        "2013-01-21,kappa,0.5,1e-18,1\n2013-01-28,a,0.08,1e-18,1\n"
        "2013-01-28,sigma,0.02,1e-18,0\n2013-02-04,sigma,0.3,0,maybe\n"
        "2013-02-11,sigma,0.3,1e-18,1\n2013-02-11,error,boom,,0\n"),
    ("calibration_short", "ingest_calibration", (), "date,param_name,value,objective,converged\n"
        "2013-01-07,sigma,x,1e-18,1\n2013-01-14,sigma,0.3\n"),
    ("calibration_long", "ingest_calibration", (), "date,param_name,value,objective,converged\n"
        "2013-01-07,sigma,0.3,1e-18,1,1\n"),
    ("calibration_header", "ingest_calibration", (), "date,name,value,objective,converged\n"),
    ("calibration_header_only", "ingest_calibration", (), "date,param_name,value,objective,converged\n"),
    ("calibration_empty", "ingest_calibration", (), ""),
    ("states_bad", "ingest_states", (), "date,time,r\n2013-01-07,0.0,0.05\n"
        "2013-01-14,x,0.05\n2013-02-30,0.1,0.05\n2013-01-28,0.2,nan\n\n2013-02-04,0.3,inf\n"),
    ("states_bad_xy", "ingest_states", (), "time,x,y\n0.0,0.01,-0.01\n0.5,abc,-0.01\n"
        "1.0,0.01,\n"),
    ("states_short", "ingest_states", (), "time,x,y\n0.0,0.01\n"),
    ("states_long", "ingest_states", (), "time,r\n0.0,0.01,0.02\n"),
    ("states_header", "ingest_states", (), "time,level\n0.0,0.05\n"),
    ("states_header_order", "ingest_states", (), "time,y,x\n0.0,0.05,0.01\n"),
    ("states_header_only", "ingest_states", (), "date,time,x,y\n"),
    ("params_missing", "params_from_file", ("hullwhite",), "a=0.08\n"),
    ("params_model_mismatch", "params_from_file", ("hullwhite",), "model=holee\nsigma=0.3\n"),
    ("params_duplicate_key", "params_from_file", ("holee",), "sigma=0.3\nnot a pair\nsigma=0.4\n"),
    ("state_missing_x", "state_from_file", ("g2pp",), "y=0.01\nt=0.5\n"),
    ("state_missing_y", "state_from_file", ("g2pp",), "x=0.01\n"),
    ("state_missing_r", "state_from_file", ("vasicek",), "t=0.5\n"),
    ("state_duplicate_key", "state_from_file", ("vasicek",), "r=0.05\nr=0.06\n"),
    ("keyvalues_bad", "read_keyvalues", (), "alpha=1\nnot a pair\nalpha=2\n# c\n=3\n"),
]

# name -> pinned str(IngestionError) for every MALFORMED case
MALFORMED_MESSAGES = {
    'panel_bad_floats': "panel file rejected (line 4: unparseable price 'abc'; line 6: non-finite price 'nan'; line 7: non-finite price '-inf'; line 8: price 1.5 outside (0, 1]; line 9: Invalid isoformat string: 'not-a-date'; line 10: empty instrument_id; line 11: maturity 2012-01-01 not after quote date 2013-02-18)",
    'panel_metadata_lines': "panel file rejected (line 6: non-finite price 'inf')",
    'panel_short_row': 'line 3: expected 4 cells, found 3',
    'panel_long_row': 'line 4: expected 4 cells, found 5',
    'panel_header_mismatch': "line 1: header ['date', 'id', 'price', 'maturity'] does not match schema ['date', 'instrument_id', 'price', 'maturity']",
    'panel_header_misplaced_optional': "line 1: header ['date', 'instrument_id', 'negotiated', 'price', 'maturity'] does not match schema ['date', 'instrument_id', 'price', 'maturity', 'negotiated']",
    'panel_empty_file': 'line 1: file has no header row',
    'panel_blank_file': "line 1: header [] does not match schema ['date', 'instrument_id', 'price', 'maturity']",
    'panel_only_metadata': 'line 2: file has no header row',
    'panel_header_only': 'panel file has no data rows',
    'panel_duplicates': "panel file rejected (line 3: duplicate quote for 'Z' on 2013-01-07; line 4: instrument 'Z' maturity 2021-01-01 conflicts with earlier 2020-01-01)",
    'panel_negotiated_bad': "panel file rejected (line 3: conflicting negotiated flags on 2013-01-07; line 4: unparseable flag 'maybe'; line 5: unparseable flag '')",
    'curve_bad_floats': "curve file rejected (line 4: non-finite discount factor 'nan'; line 5: unparseable tau 'oops'; line 6: non-finite discount factor 'inf'; line 8: non-finite discount factor '1e400')",
    'curve_short_long': 'line 2: expected 2 cells, found 3',
    'curve_header_mismatch': "line 2: header ['tau;discount_factor'] does not match schema ['tau', 'discount_factor']",
    'curve_empty_file': 'line 1: file has no header row',
    'curve_header_only': 'a discount curve needs at least one pillar',
    'curve_duplicate_tau': 'pillar maturities must be strictly increasing',
    'curve_out_of_order': "curve file rejected (line 3: tau 1.0 below the previous pillar's 2.0)",
    'curve_price_range': 'pillar discount factors must lie in (0, 1]',
    'sections_bad': "cross-section file rejected (line 2: unparseable maturity 'x'; line 3: non-finite maturity 'nan'; line 4: maturity -1.0 not positive; line 5: non-finite price 'inf'; line 6: price 0.0 outside (0, 1]; line 8: duplicate maturity 2.0 on 2013-01-07; line 9: month must be in 1..12)",
    'sections_short': 'line 3: expected 3 cells, found 2',
    'sections_long': 'line 2: expected 3 cells, found 4',
    'sections_header': "line 1: header ['date', 'maturity', 'zero_price'] does not match schema ['date', 'maturity_years', 'zero_price']",
    'sections_empty': 'cross-section file has no data rows',
    'bonds_bad': "bond file rejected (line 2: empty bond id; line 3: unparseable face 'abc'; line 4: non-finite coupon rate 'nan'; line 5: invalid literal for int() with base 10: 'two'; line 6: day is out of range for month; line 7: face must be positive, got -100.0; line 9: duplicate bond id 'G')",
    'bonds_short_long': 'line 2: expected 5 cells, found 6',
    'bonds_header': "line 1: header ['id', 'face', 'coupon', 'frequency', 'maturity'] does not match schema ['id', 'face', 'coupon_rate', 'frequency', 'maturity']",
    'bonds_empty': 'line 1: file has no header row',
    'quotes_bad': "quote file rejected (line 2: unparseable price 'x'; line 3: non-finite price 'inf'; line 4: price -3.0 not positive; line 5: Invalid isoformat string: '07/01/2013'; line 6: price 0.0 not positive)",
    'quotes_short': 'line 2: expected 3 cells, found 2',
    'quotes_header': "line 1: header ['id', 'date', 'price'] does not match schema ['id', 'settlement', 'price']",
    'surface_bad': "surface file rejected (line 2: unparseable P_25y 'x'; line 4: unparseable date 'soon'; line 5: non-finite P_1m 'nan')",
    'surface_short': 'line 2: expected 15 cells, found 14',
    'surface_header': "line 1: header ['date', 'P_1m'] does not match schema ['date', 'P_1m', 'P_2m', 'P_3m', 'P_6m', 'P_9m', 'P_1y', 'P_2y', 'P_3y', 'P_5y', 'P_7y', 'P_10y', 'P_15y', 'P_20y', 'P_25y']",
    'surface_header_only': 'surface file has no data rows',
    'surface_empty': 'line 1: file has no header row',
    'arbitrage_bad': 'line 5: expected 4 cells, found 3',
    'arbitrage_bad_floats': "arbitrage file rejected (line 2: unparseable p_high 'x'; line 3: non-finite tau_high '-inf')",
    'arbitrage_header': "line 1: header ['tau_low', 'tau_high', 'p_low'] does not match schema ['tau_low', 'tau_high', 'p_low', 'p_high']",
    'arbitrage_empty': 'line 1: file has no header row',
    'calibration_bad': "calibration file rejected (line 4: Invalid isoformat string: 'not-a-date'; line 2: unparseable sigma 'x'; line 5: non-finite objective 'nan'; line 6: parameter names ['kappa'] match no calibratable model; line 7: inconsistent objective/converged on 2013-01-28; line 9: unparseable flag 'maybe'; line 10: unparseable error 'boom')",
    'calibration_short': 'line 3: expected 5 cells, found 3',
    'calibration_long': 'line 2: expected 5 cells, found 6',
    'calibration_header': "line 1: header ['date', 'name', 'value', 'objective', 'converged'] does not match schema ['date', 'param_name', 'value', 'objective', 'converged']",
    'calibration_header_only': 'calibration file has no data rows',
    'calibration_empty': 'line 1: file has no header row',
    'states_bad': "state file rejected (line 3: unparseable time 'x'; line 4: day is out of range for month; line 5: non-finite r 'nan'; line 7: non-finite r 'inf')",
    'states_bad_xy': "state file rejected (line 3: unparseable x 'abc'; line 4: unparseable y '')",
    'states_short': 'line 2: expected 3 cells, found 2',
    'states_long': 'line 2: expected 2 cells, found 3',
    'states_header': "line 1: header ['time', 'level'] matches neither state schema",
    'states_header_order': "line 1: header ['time', 'y', 'x'] matches neither state schema",
    'states_header_only': 'state file has no data rows',
    'params_missing': "missing parameter keys ['sigma'] for hullwhite",
    'params_model_mismatch': "file declares model 'holee', expected 'hullwhite'",
    'params_duplicate_key': "key=value file rejected (line 2: expected key=value, got 'not a pair'; line 3: duplicate key 'sigma')",
    'state_missing_x': "missing state key 'x'",
    'state_missing_y': "missing state key 'y'",
    'state_missing_r': "missing state key 'r'",
    'state_duplicate_key': "key=value file rejected (line 2: duplicate key 'r')",
    'keyvalues_bad': "key=value file rejected (line 2: expected key=value, got 'not a pair'; line 3: duplicate key 'alpha')",
}


# (name, reader, extra args, file text, what the old per-schema readers did):
# inputs whose outcome changed on purpose, pinned in CHANGED_MESSAGES
CHANGED = [
    ("curve_bad_asof", "ingest_curve", (),
        "# asof=2012-02-30\ntau,discount_factor\n1.0,0.96\n",
        "ValueError traceback: day is out of range for month"),
    ("curve_bad_flag", "ingest_curve", (),
        "# asof=2012-02-01\n# flat_extrapolation=maybe\ntau,discount_factor\n1.0,0.96\n",
        "ValueError traceback: unparseable flag 'maybe'"),
    ("params_unparseable", "params_from_file", ("holee",),
        "model=holee\nsigma=x\n",
        "ValueError traceback: unparseable sigma 'x'"),
    ("params_unknown_key", "params_from_file", ("vasicek",),
        "a=1.7\nb=0.09\nsigma=0.37\nkappa=2\n",
        "accepted, kappa ignored"),
    ("state_unparseable", "state_from_file", ("vasicek",),
        "r=0.05\nt=abc\n",
        "ValueError traceback: unparseable t 'abc'"),
    ("state_unknown_key", "state_from_file", ("vasicek",),
        "r=0.05\ntime=0.5\n",
        "accepted at t = 0, time ignored"),
    ("state_model_key", "state_from_file", ("g2pp",),
        "model=g2pp\nx=0.01\ny=0.02\n",
        "accepted, model ignored"),
    ("calibration_duplicate_param", "ingest_calibration", (),
        "date,param_name,value,objective,converged\n"
        "2013-01-07,sigma,0.3,1e-18,1\n2013-01-07,sigma,0.4,1e-18,1\n",
        "accepted, the last sigma kept"),
    ("arbitrage_reversed", "ingest_arbitrage", (),
        "tau_low,tau_high,p_low,p_high\n2.0,1.0,0.9,0.95\n",
        "ValueError traceback from ArbitrageReport"),
    ("surface_above_par", "ingest_surface", (),
        ",".join(fileio.SURFACE_COLUMNS) + "\n2013-01-07,"
        + ",".join(["1.5"] + ["0.9"] * 13) + "\n",
        "ValueError traceback from PriceSurface"),
    ("panel_unbalanced_quote", "ingest_panel", (), _panel(
        '2013-01-07,Z,0.95,"2020-01-01\n2013-01-14,Z,0.94,2020-01-01\n'),
        "accepted: each line was its own record, so the quote closed at the "
        "line end"),
    ("panel_form_feed", "ingest_panel", (), _panel(
        "2013-01-07,Z,0.95,2020-01-01\n\x0c\n2013-01-14,Z,abc,2020-01-01\n"),
        "panel file rejected (line 5: unparseable price 'abc'): str.splitlines "
        "also broke lines at \\x0c, \\x85 and \\u2028, which csv.writer does "
        "not quote"),
    ("surface_unbalanced_quote", "ingest_surface", (),
        ",".join(fileio.SURFACE_COLUMNS) + "\n"
        + "2013-01-07" + ",0.9" * 13 + ',"0.9\n'
        + ("2013-01-08" + ",0.9" * 14 + "\n") * 2500,
        "accepted: each line was its own record, so the quote closed at the "
        "line end"),
    ("states_metadata_lines", "ingest_states", (), "# asof=2013-01-07\ntime,r\n0.0,0.05\n",
        "line 1: header ['# asof=2013-01-07'] matches neither state schema"),
    ("states_empty_file", "ingest_states", (), "",
        "line 1: header [] matches neither state schema"),
]

# name -> pinned outcome for every CHANGED case: the str() of the
# IngestionError, or the result's digest when the file now reads
CHANGED_OUTCOMES = {
    'surface_unbalanced_quote': 'line 2: field larger than field limit (131072)',
    'panel_form_feed': "panel file rejected (line 4: unparseable price 'abc')",
    'curve_bad_asof': 'line 1: asof: day is out of range for month',
    'curve_bad_flag': "line 2: flat_extrapolation: unparseable flag 'maybe'",
    'params_unparseable': "params file rejected (line 2: unparseable sigma 'x')",
    'params_unknown_key': "params file rejected (line 4: unknown key 'kappa')",
    'state_unparseable': "state file rejected (line 2: unparseable t 'abc')",
    'state_unknown_key': "state file rejected (line 2: unknown key 'time')",
    'state_model_key': "state file rejected (line 1: unknown key 'model')",
    'calibration_duplicate_param': 'calibration file rejected (line 2: duplicate parameter rows on 2013-01-07)',
    'arbitrage_reversed': 'arbitrage file rejected (line 2: malformed violation (2.0, 1.0, 0.9, 0.95): requires T_low < T_high and P_low < P_high)',
    'surface_above_par': 'surface file rejected (line 2: P_1m 1.5 outside (0, 1])',
    'panel_unbalanced_quote': "panel file rejected (line 2: Invalid isoformat string: '2020-01-01\\n2013-01-14,Z,0.94,2020-01-01')",
    'states_metadata_lines': 'digest 8822f0b32bb55a8fce85ef69716c04ea9b33bb86bd87733e6c24d3cdd1280479',
    'states_empty_file': 'line 1: file has no header row',
}


def _read(tmp_path, reader, args, text):
    path = tmp_path / "input.txt"
    path.write_bytes(text.encode())
    return getattr(fileio, reader)(path, *args)


def _outcome(tmp_path, reader, args, text):
    try:
        return "digest " + digest(_read(tmp_path, reader, args, text))
    except IngestionError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(VALID))
def test_valid_file_reads_as_pinned(tmp_path, name):
    reader, args, text = VALID[name]
    assert digest(_read(tmp_path, reader, args, text)) == VALID_DIGESTS[name]


@pytest.mark.parametrize("name, reader, args, text", MALFORMED, ids=[c[0] for c in MALFORMED])
def test_malformed_file_message_as_pinned(tmp_path, name, reader, args, text):
    with pytest.raises(IngestionError) as excinfo:
        _read(tmp_path, reader, args, text)
    assert str(excinfo.value) == MALFORMED_MESSAGES[name]


@pytest.mark.parametrize(
    "name, reader, args, text, before", CHANGED, ids=[c[0] for c in CHANGED]
)
def test_changed_outcome_as_pinned(tmp_path, name, reader, args, text, before):
    assert _outcome(tmp_path, reader, args, text) == CHANGED_OUTCOMES[name]


def test_every_reader_has_a_rejected_malformed_case(tmp_path):
    readers = sorted(
        name
        for name in vars(fileio)
        if callable(getattr(fileio, name))
        and (name.startswith("ingest_") or name.endswith("_from_file"))
    )
    assert readers, "no reader found"
    rejected = set()
    for name, reader, args, text in MALFORMED:
        with pytest.raises(IngestionError):
            _read(tmp_path, reader, args, text)
        rejected.add(reader)
    assert [r for r in readers if r not in rejected] == []


def test_cases_are_pinned():
    assert set(VALID_DIGESTS) == set(VALID)
    assert set(MALFORMED_MESSAGES) == {c[0] for c in MALFORMED}
    assert set(CHANGED_OUTCOMES) == {c[0] for c in CHANGED}

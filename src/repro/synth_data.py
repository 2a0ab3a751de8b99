"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Generators are deterministic in ``seed`` so the
DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def part(spark: SparkSession, *, sf: float = 0.01, seed: int = 5) -> DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )
    return spark.createDataFrame(pdf)


# ---------------------------------------------------------------------------
# DeepMapping-paper workloads (ICDE'24 reproduction) — see DESIGN.md §2.4/2.5.
# All generators are deterministic in ``seed`` and scale with ``sf``.
# ---------------------------------------------------------------------------

_N_TPCDS_CATALOG_SALES_PER_SF = 1_440_000
_N_TPCDS_CATALOG_RETURNS_PER_SF = 144_000
_N_TPCDS_ITEM_PER_SF = 18_000
_CD_DIMS = (  # TPC-DS customer_demographics dimension columns (cross product)
    ("cd_gender", np.array(["M", "F"])),
    ("cd_marital_status", np.array(["M", "S", "D", "W", "U"])),
    ("cd_education_status", np.array(
        ["Primary", "Secondary", "College", "2 yr Degree",
         "4 yr Degree", "Advanced Degree", "Unknown"])),
    ("cd_purchase_estimate", np.arange(500, 10001, 500)),  # 20 values
    ("cd_credit_rating", np.array(["Low Risk", "High Risk", "Good", "Unknown"])),
    ("cd_dep_count", np.arange(0, 7)),
    ("cd_dep_employed_count", np.arange(0, 7)),
    ("cd_dep_college_count", np.arange(0, 7)),
)


def lineitem_keyed(spark: SparkSession, *, sf: float = 0.01, seed: int = 10) -> DataFrame:
    """TPC-H lineitem with a *unique* composite key (l_orderkey,
    l_linenumber), float attributes removed (paper Sec. V-A.1). Each order
    gets 1–7 lines, as in real TPC-H."""
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    lines_per_order = g.integers(1, 8, n_orders)
    orderkey = np.repeat(np.arange(1, n_orders + 1), lines_per_order)
    linenumber = np.concatenate([np.arange(1, k + 1) for k in lines_per_order])
    n = len(orderkey)
    pdf = pd.DataFrame(
        {
            "l_orderkey": orderkey,
            "l_linenumber": linenumber,
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_quantity": g.integers(1, 51, n),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": np.where(g.random(n) < 0.5, "O", "F"),
            "l_shipdate_days": g.integers(0, 2557, n),
        }
    )
    return spark.createDataFrame(pdf)


def orders_keyed(spark: SparkSession, *, sf: float = 0.01, seed: int = 1) -> DataFrame:
    """TPC-H orders, float attributes removed, dates as day offsets."""
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
            "o_orderdate_days": g.integers(0, 2406, n),
        }
    )
    return spark.createDataFrame(pdf)


def customer_demographics(spark: SparkSession, *, sf: float = 0.01, seed: int = 20) -> DataFrame:
    """TPC-DS customer_demographics: the true cross product of the
    demographic dimensions, truncated to ``sf`` of the real 1,920,800 rows.
    Every attribute is a mixed-radix digit of cd_demo_sk — the 'periodical
    patterns along the key-dimension' the paper highlights (its most
    compressible workload: 95 MB → 0.5 MB)."""
    full = 1
    for _, vals in _CD_DIMS:
        full *= len(vals)
    n = max(1, min(full, int(full * sf)))
    sk = np.arange(n, dtype=np.int64)
    cols = {"cd_demo_sk": sk + 1}
    rem = sk.copy()
    for name, vals in reversed(_CD_DIMS):
        cols[name] = vals[rem % len(vals)]
        rem //= len(vals)
    pdf = pd.DataFrame(cols)[["cd_demo_sk"] + [name for name, _ in _CD_DIMS]]
    return spark.createDataFrame(pdf)


def catalog_sales(spark: SparkSession, *, sf: float = 0.01, seed: int = 21) -> DataFrame:
    """TPC-DS catalog_sales (integer/categorical attributes only). Mostly
    random foreign keys with larger cardinalities than TPC-H — the paper's
    'TPC-DS is generally harder to compress' property."""
    n = max(1, int(_N_TPCDS_CATALOG_SALES_PER_SF * sf))
    n_item = max(2, int(_N_TPCDS_ITEM_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "cs_order_number": np.arange(1, n + 1),
            "cs_item_sk": g.integers(1, n_item + 1, n),
            "cs_call_center_sk": g.integers(1, 7, n),
            "cs_ship_mode_sk": g.integers(1, 21, n),
            "cs_warehouse_sk": g.integers(1, 6, n),
            "cs_quantity": g.integers(1, 101, n),
        }
    )
    return spark.createDataFrame(pdf)


def catalog_returns(spark: SparkSession, *, sf: float = 0.01, seed: int = 22) -> DataFrame:
    n = max(1, int(_N_TPCDS_CATALOG_RETURNS_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "cr_order_number": np.arange(1, n + 1),
            "cr_return_quantity": g.integers(1, 101, n),
            "cr_reason_sk": g.integers(1, 36, n),
            "cr_call_center_sk": g.integers(1, 7, n),
        }
    )
    return spark.createDataFrame(pdf)


def synth_correlation(
    spark: SparkSession,
    *,
    n: int,
    n_value_cols: int = 1,
    correlated: bool = False,
    noise: float = 0.02,
    seed: int = 30,
) -> DataFrame:
    """The paper's synthetic correlation datasets (Sec. V-A.1).

    Low correlation (``correlated=False``): values sampled independently
    of the key (TPC-H order-status-like; Pearson ~1e-4 in the paper).
    High correlation (``correlated=True``): values are periodic functions
    of the key (TPC-DS customer_demographics-like), with a ``noise``
    fraction of rows flipped to a random class so T_aux is non-trivial.
    """
    g = _rng(seed)
    key = np.arange(1, n + 1, dtype=np.int64)
    cards = [7, 5, 9, 4, 11, 6]
    cols = {"key": key}
    for j in range(n_value_cols):
        card = cards[j % len(cards)]
        if correlated:
            # periodic in the key's decimal digits (period 10^(j+1)) — the
            # 'periodical patterns along the key-dimension' of the paper's
            # high-correlation datasets, aligned with the one-hot digit
            # input encoding exactly as customer_demographics' patterns
            # align with its cross-product radices.
            vals = ((key - 1) // 10**j) % 10 % card
            flip = g.random(n) < noise
            vals = np.where(flip, g.integers(0, card, n), vals)
        else:
            vals = g.integers(0, card, n)
        cols[f"v{j}"] = vals.astype(np.int64)
    return spark.createDataFrame(pd.DataFrame(cols))


_CROP_TYPES = np.array(
    ["Corn", "Soybeans", "Winter Wheat", "Cotton", "Alfalfa", "Rice",
     "Sorghum", "Barley", "Oats", "Fallow", "Grassland", "Forest",
     "Water", "Developed", "Spring Wheat", "Sugarbeets", "Dry Beans",
     "Potatoes", "Peanuts", "Pecans"]
)


def crop_raster(
    spark: SparkSession, *, side: int = 256, block: int = 16, noise: float = 0.02,
    seed: int = 40,
) -> DataFrame:
    """Synthetic CroplandCROS stand-in (DESIGN.md §2.5): a side×side raster
    of crop types with strong spatial autocorrelation (coarse random
    blocks upsampled) plus salt noise, flattened to (lat, lon, crop_type)."""
    g = _rng(seed)
    coarse = g.integers(0, len(_CROP_TYPES), (side // block + 1, side // block + 1))
    grid = np.kron(coarse, np.ones((block, block), dtype=np.int64))[:side, :side]
    flip = g.random((side, side)) < noise
    grid = np.where(flip, g.integers(0, len(_CROP_TYPES), (side, side)), grid)
    lat, lon = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    pdf = pd.DataFrame(
        {
            "lat": lat.ravel().astype(np.int64),
            "lon": lon.ravel().astype(np.int64),
            "crop_type": _CROP_TYPES[grid.ravel()],
        }
    )
    return spark.createDataFrame(pdf)

"""Synthetic database schemas and data generators.

Three domains are provided:

* **limnology** — the paper's running example (water salinity / temperature /
  city locations around Seattle lakes),
* **sky survey** — an SDSS-like photometric/spectroscopic catalogue,
* **web analytics** — an industrial clickstream/search-log schema.

Data generation is deterministic for a given seed and scales linearly with the
``scale`` parameter so that the benchmark harness can sweep database sizes.
"""

from __future__ import annotations

import random

from repro.storage.database import Database
from repro.storage.schema import ColumnSchema, TableSchema
from repro.storage.types import DataType

#: Lakes used by the limnology generator (the paper's example mentions Lake
#: Washington and Lake Union explicitly).
LAKE_NAMES = [
    "Lake Washington",
    "Lake Union",
    "Lake Sammamish",
    "Green Lake",
    "Lake Michigan",
    "Lake Superior",
    "Lake Chelan",
    "Crater Lake",
]

CITY_NAMES = [
    ("Seattle", "WA"),
    ("Bellevue", "WA"),
    ("Kirkland", "WA"),
    ("Tacoma", "WA"),
    ("Spokane", "WA"),
    ("Portland", "OR"),
    ("Chicago", "MI"),
    ("Detroit", "MI"),
    ("Ann Arbor", "MI"),
    ("Madison", "WI"),
]


def _column(name: str, data_type: DataType, **kwargs) -> ColumnSchema:
    return ColumnSchema(name=name, data_type=data_type, **kwargs)


# ---------------------------------------------------------------------------
# Schemas
# ---------------------------------------------------------------------------


def limnology_schema() -> list[TableSchema]:
    """The water-science schema used in the paper's examples."""
    return [
        TableSchema(
            name="Lakes",
            columns=[
                _column("lake_id", DataType.INTEGER, primary_key=True),
                _column("name", DataType.TEXT),
                _column("state", DataType.TEXT),
                _column("area_km2", DataType.FLOAT),
                _column("max_depth_m", DataType.FLOAT),
            ],
        ),
        TableSchema(
            name="WaterSalinity",
            columns=[
                _column("reading_id", DataType.INTEGER, primary_key=True),
                _column("lake_id", DataType.INTEGER),
                _column("loc_x", DataType.FLOAT),
                _column("loc_y", DataType.FLOAT),
                _column("salinity", DataType.FLOAT),
                _column("depth", DataType.FLOAT),
                _column("month", DataType.INTEGER),
            ],
        ),
        TableSchema(
            name="WaterTemp",
            columns=[
                _column("reading_id", DataType.INTEGER, primary_key=True),
                _column("lake_id", DataType.INTEGER),
                _column("loc_x", DataType.FLOAT),
                _column("loc_y", DataType.FLOAT),
                _column("temp", DataType.FLOAT),
                _column("depth", DataType.FLOAT),
                _column("month", DataType.INTEGER),
            ],
        ),
        TableSchema(
            name="CityLocations",
            columns=[
                _column("city_id", DataType.INTEGER, primary_key=True),
                _column("city", DataType.TEXT),
                _column("state", DataType.TEXT),
                _column("loc_x", DataType.FLOAT),
                _column("loc_y", DataType.FLOAT),
                _column("population", DataType.INTEGER),
            ],
        ),
        TableSchema(
            name="Sensors",
            columns=[
                _column("sensor_id", DataType.INTEGER, primary_key=True),
                _column("lake_id", DataType.INTEGER),
                _column("sensor_type", DataType.TEXT),
                _column("installed_year", DataType.INTEGER),
            ],
        ),
        TableSchema(
            name="SensorReadings",
            columns=[
                _column("reading_id", DataType.INTEGER, primary_key=True),
                _column("sensor_id", DataType.INTEGER),
                _column("month", DataType.INTEGER),
                _column("value", DataType.FLOAT),
            ],
        ),
    ]


def sky_survey_schema() -> list[TableSchema]:
    """An SDSS-like sky-survey schema."""
    return [
        TableSchema(
            name="PhotoObj",
            columns=[
                _column("objid", DataType.INTEGER, primary_key=True),
                _column("ra", DataType.FLOAT),
                _column("dec", DataType.FLOAT),
                _column("obj_type", DataType.TEXT),
                _column("mag_r", DataType.FLOAT),
                _column("mag_g", DataType.FLOAT),
                _column("run_id", DataType.INTEGER),
            ],
        ),
        TableSchema(
            name="SpecObj",
            columns=[
                _column("specobjid", DataType.INTEGER, primary_key=True),
                _column("objid", DataType.INTEGER),
                _column("redshift", DataType.FLOAT),
                _column("spec_class", DataType.TEXT),
            ],
        ),
        TableSchema(
            name="Neighbors",
            columns=[
                _column("objid", DataType.INTEGER),
                _column("neighbor_objid", DataType.INTEGER),
                _column("distance_arcsec", DataType.FLOAT),
            ],
        ),
        TableSchema(
            name="Runs",
            columns=[
                _column("run_id", DataType.INTEGER, primary_key=True),
                _column("mjd", DataType.INTEGER),
                _column("field", DataType.INTEGER),
                _column("quality", DataType.TEXT),
            ],
        ),
    ]


def web_analytics_schema() -> list[TableSchema]:
    """An industrial web-analytics schema (clickstream, search log, orders)."""
    return [
        TableSchema(
            name="Users",
            columns=[
                _column("user_id", DataType.INTEGER, primary_key=True),
                _column("country", DataType.TEXT),
                _column("signup_month", DataType.INTEGER),
                _column("plan", DataType.TEXT),
            ],
        ),
        TableSchema(
            name="PageViews",
            columns=[
                _column("view_id", DataType.INTEGER, primary_key=True),
                _column("user_id", DataType.INTEGER),
                _column("url", DataType.TEXT),
                _column("minute", DataType.INTEGER),
                _column("duration_s", DataType.FLOAT),
            ],
        ),
        TableSchema(
            name="Searches",
            columns=[
                _column("search_id", DataType.INTEGER, primary_key=True),
                _column("user_id", DataType.INTEGER),
                _column("terms", DataType.TEXT),
                _column("minute", DataType.INTEGER),
                _column("clicks", DataType.INTEGER),
            ],
        ),
        TableSchema(
            name="Orders",
            columns=[
                _column("order_id", DataType.INTEGER, primary_key=True),
                _column("user_id", DataType.INTEGER),
                _column("amount", DataType.FLOAT),
                _column("minute", DataType.INTEGER),
            ],
        ),
    ]


# ---------------------------------------------------------------------------
# Data generation
# ---------------------------------------------------------------------------


def populate_limnology(db: Database, scale: int = 1, seed: int = 7) -> None:
    """Fill the limnology tables with ``scale``-proportional synthetic data.

    Lake Washington (lake_id 1) and Lake Union (lake_id 2) are seeded so that
    *only* readings with ``temp < 18`` exist for Lake Washington while Lake
    Union has readings above 18 as well — this is the property exploited by
    the query-by-data experiment (C3), mirroring the paper's example that
    "all matching queries specify 'temp < 18'".
    """
    rng = random.Random(seed)
    lakes = []
    for lake_id, name in enumerate(LAKE_NAMES, start=1):
        state = "WA" if "Lake M" not in name and "Superior" not in name and "Crater" not in name else (
            "MI" if "Michigan" in name or "Superior" in name else "OR"
        )
        lakes.append(
            {
                "lake_id": lake_id,
                "name": name,
                "state": state,
                "area_km2": round(rng.uniform(2.0, 500.0), 2),
                "max_depth_m": round(rng.uniform(10.0, 300.0), 1),
            }
        )
    db.insert_rows("Lakes", lakes)

    cities = [
        {
            "city_id": index,
            "city": city,
            "state": state,
            "loc_x": round(rng.uniform(-123.0, -121.0), 4),
            "loc_y": round(rng.uniform(46.5, 48.5), 4),
            "population": rng.randint(10_000, 800_000),
        }
        for index, (city, state) in enumerate(CITY_NAMES, start=1)
    ]
    db.insert_rows("CityLocations", cities)

    readings_per_lake = 40 * scale
    temp_rows = []
    salinity_rows = []
    reading_id = 0
    for lake in lakes:
        for _ in range(readings_per_lake):
            reading_id += 1
            loc_x = round(rng.uniform(-123.0, -121.0), 4)
            loc_y = round(rng.uniform(46.5, 48.5), 4)
            month = rng.randint(1, 12)
            depth = round(rng.uniform(0.5, 40.0), 1)
            if lake["lake_id"] == 1:
                # Lake Washington: strictly cool readings (temp < 18).
                temp = round(rng.uniform(4.0, 17.5), 2)
            elif lake["lake_id"] == 2:
                # Lake Union: strictly warm readings (temp >= 18), so that a
                # 'temp < 18' selection is exactly what distinguishes the two
                # lakes — the paper's query-by-data example (Section 2.2).
                temp = round(rng.uniform(18.5, 26.0), 2)
            else:
                temp = round(rng.uniform(2.0, 24.0), 2)
            temp_rows.append(
                {
                    "reading_id": reading_id,
                    "lake_id": lake["lake_id"],
                    "loc_x": loc_x,
                    "loc_y": loc_y,
                    "temp": temp,
                    "depth": depth,
                    "month": month,
                }
            )
            salinity_rows.append(
                {
                    "reading_id": reading_id,
                    "lake_id": lake["lake_id"],
                    "loc_x": loc_x,
                    "loc_y": loc_y,
                    "salinity": round(rng.uniform(0.01, 0.6), 3),
                    "depth": depth,
                    "month": month,
                }
            )
    db.insert_rows("WaterTemp", temp_rows)
    db.insert_rows("WaterSalinity", salinity_rows)

    sensors = []
    sensor_id = 0
    for lake in lakes:
        for sensor_type in ("temp", "salinity", "ph"):
            sensor_id += 1
            sensors.append(
                {
                    "sensor_id": sensor_id,
                    "lake_id": lake["lake_id"],
                    "sensor_type": sensor_type,
                    "installed_year": rng.randint(1998, 2008),
                }
            )
    db.insert_rows("Sensors", sensors)

    sensor_readings = []
    reading_id = 0
    for sensor in sensors:
        for month in range(1, 1 + min(12, 4 * scale)):
            reading_id += 1
            sensor_readings.append(
                {
                    "reading_id": reading_id,
                    "sensor_id": sensor["sensor_id"],
                    "month": month,
                    "value": round(rng.uniform(0.0, 30.0), 3),
                }
            )
    db.insert_rows("SensorReadings", sensor_readings)


def populate_sky_survey(db: Database, scale: int = 1, seed: int = 11) -> None:
    """Fill the sky-survey tables with synthetic objects and spectra."""
    rng = random.Random(seed)
    num_objects = 200 * scale
    runs = [
        {"run_id": run_id, "mjd": 50_000 + run_id, "field": rng.randint(1, 99), "quality": rng.choice(["GOOD", "OK", "BAD"])}
        for run_id in range(1, 11)
    ]
    db.insert_rows("Runs", runs)
    objects = []
    for objid in range(1, num_objects + 1):
        objects.append(
            {
                "objid": objid,
                "ra": round(rng.uniform(0.0, 360.0), 5),
                "dec": round(rng.uniform(-90.0, 90.0), 5),
                "obj_type": rng.choice(["STAR", "GALAXY", "QSO"]),
                "mag_r": round(rng.uniform(12.0, 24.0), 3),
                "mag_g": round(rng.uniform(12.0, 25.0), 3),
                "run_id": rng.randint(1, 10),
            }
        )
    db.insert_rows("PhotoObj", objects)
    spectra = []
    for specobjid, obj in enumerate(rng.sample(objects, max(1, num_objects // 3)), start=1):
        spectra.append(
            {
                "specobjid": specobjid,
                "objid": obj["objid"],
                "redshift": round(rng.uniform(0.0, 3.5), 4),
                "spec_class": obj["obj_type"],
            }
        )
    db.insert_rows("SpecObj", spectra)
    neighbors = []
    for obj in objects[:: max(1, 10 // scale)]:
        other = rng.choice(objects)
        if other["objid"] != obj["objid"]:
            neighbors.append(
                {
                    "objid": obj["objid"],
                    "neighbor_objid": other["objid"],
                    "distance_arcsec": round(rng.uniform(0.1, 30.0), 3),
                }
            )
    db.insert_rows("Neighbors", neighbors)


def populate_web_analytics(db: Database, scale: int = 1, seed: int = 13) -> None:
    """Fill the web-analytics tables with synthetic users and events."""
    rng = random.Random(seed)
    num_users = 50 * scale
    users = [
        {
            "user_id": user_id,
            "country": rng.choice(["US", "DE", "JP", "BR", "IN"]),
            "signup_month": rng.randint(1, 24),
            "plan": rng.choice(["free", "pro", "enterprise"]),
        }
        for user_id in range(1, num_users + 1)
    ]
    db.insert_rows("Users", users)
    page_views = []
    searches = []
    orders = []
    view_id = search_id = order_id = 0
    urls = ["/home", "/docs", "/pricing", "/blog", "/download", "/search"]
    for user in users:
        for _ in range(rng.randint(3, 12)):
            view_id += 1
            page_views.append(
                {
                    "view_id": view_id,
                    "user_id": user["user_id"],
                    "url": rng.choice(urls),
                    "minute": rng.randint(0, 60 * 24 * 7),
                    "duration_s": round(rng.expovariate(1 / 45.0), 1),
                }
            )
        for _ in range(rng.randint(0, 4)):
            search_id += 1
            searches.append(
                {
                    "search_id": search_id,
                    "user_id": user["user_id"],
                    "terms": rng.choice(["install", "pricing", "api error", "export csv"]),
                    "minute": rng.randint(0, 60 * 24 * 7),
                    "clicks": rng.randint(0, 5),
                }
            )
        if rng.random() < 0.3:
            order_id += 1
            orders.append(
                {
                    "order_id": order_id,
                    "user_id": user["user_id"],
                    "amount": round(rng.uniform(5.0, 500.0), 2),
                    "minute": rng.randint(0, 60 * 24 * 7),
                }
            )
    db.insert_rows("PageViews", page_views)
    db.insert_rows("Searches", searches)
    db.insert_rows("Orders", orders)


_DOMAINS = {
    "limnology": (limnology_schema, populate_limnology),
    "sky_survey": (sky_survey_schema, populate_sky_survey),
    "web_analytics": (web_analytics_schema, populate_web_analytics),
}


def build_database(
    domain: str = "limnology",
    scale: int = 1,
    seed: int = 7,
    clock=None,
    exec_settings=None,
) -> Database:
    """Create a :class:`Database` with the named domain's schema and data.

    ``domain`` is one of ``limnology``, ``sky_survey``, ``web_analytics``;
    ``exec_settings`` is an optional
    :class:`~repro.storage.exec_settings.ExecutionSettings` for the engine's
    batch-size knobs (the CQMS's ``exec_*`` config fields only
    tune its own meta-database, never a user DBMS built here).
    """
    if domain not in _DOMAINS:
        raise ValueError(f"unknown workload domain {domain!r}; choose from {sorted(_DOMAINS)}")
    schema_factory, populate = _DOMAINS[domain]
    db = Database(name=domain, clock=clock, exec_settings=exec_settings)
    for table_schema in schema_factory():
        db.create_table(table_schema)
    populate(db, scale=scale, seed=seed)
    return db

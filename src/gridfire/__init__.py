"""Deterministic grid-ignited wildfire risk engine.

Simulates fire spread from ignition points placed along transmission
lines, converts burned area and damaged line mileage into dollar losses,
and ranks lines by a normalized risk metric.
"""

from .errors import (
    CatalogError,
    CoverageError,
    DegenerateNormalizationError,
    GeometryError,
    GridFireError,
    InconsistentRasterError,
    InvalidInputError,
    InvalidSampleError,
    MalformedSeriesError,
    MissingLayerError,
    OutOfBoundsError,
    TopologyError,
)
from .geo import (
    GeoPoint,
    GridIndex,
    PlanarPoint,
    RasterFrame,
    polyline_length_miles,
    project,
    traverse_cells,
    unproject,
)
from .landscape import (
    FuelCatalog,
    FuelModel,
    LandscapeRaster,
    SynthSpec,
    cell_acreage,
    default_catalog,
    load_catalog,
    load_landscape,
    synth_landscape,
    write_landscape,
)
from .network import (
    Branch,
    Bus,
    Corridors,
    GridNetwork,
    ignitable_lines,
    line_cells,
    load_network,
    write_network,
)
from .risk import (
    CostParams,
    LineRisk,
    rank_lines,
    risk_metric,
    seasonal_average,
    wfl,
)
from .scenarios import (
    IgnitionSpec,
    ScenarioResult,
    StudyConfig,
    assess_results,
    build_matrix,
    place_ignitions,
    read_results,
    run_batch,
    write_results,
)
from .spread import (
    BurnRaster,
    SpreadEngine,
    SpreadParams,
    burned_area_acres,
    directional_ros,
    simulate_spread,
)
from .weather import (
    WeatherSample,
    WeatherSeries,
    load_weather,
    season_starts,
)

__version__ = "0.1.0"

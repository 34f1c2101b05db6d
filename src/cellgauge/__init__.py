"""cellgauge: spreadsheet complexity analyzer.

Parses spreadsheet formulas into ASTs, resolves cell dependencies, computes
22 per-workbook complexity metrics, and aggregates them over corpora.
"""

from .analytics import (
    CorrelationMatrix,
    CorpusSummary,
    Histogram,
    HistogramSpec,
    aggregate,
    correlation_matrix,
    histogram,
    pearson,
    spearman,
)
from .expressions import (
    CellLocator,
    Constant,
    Expr,
    Function,
    OpKind,
    Operator,
    Parenthesis,
    Range,
    Reference,
    ValueType,
    column_index_to_letter,
    column_letter_to_index,
    serialize,
)
from .graph import (
    DependencyGraph,
    NotAFormulaCellError,
    build_graph,
)
from .interchange import (
    SchemaError,
    read_interchange,
    read_interchange_file,
)
from .lexer import tokenize
from .metrics import (
    DEFAULT_CONDITIONAL_FUNCTIONS,
    METRIC_IDS,
    METRIC_NAMES,
    AstMetrics,
    MetricRecord,
    ast_metrics,
    compute_record,
)
from .model import (
    Cell,
    CellCoordinate,
    CellKind,
    DefinedName,
    Formula,
    Workbook,
    Worksheet,
    classify_cells,
)
from .parser import ParseError, parse, parse_formula, parse_text
from .tokens import LexError, TokenKind
from .xlsx import (
    CorruptPartError,
    MalformedSheetXmlError,
    MissingWorkbookPartError,
    NotAZipError,
    XlsxError,
    read_xlsx,
)

__version__ = "0.1.0"

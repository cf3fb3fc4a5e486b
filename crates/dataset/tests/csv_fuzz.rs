//! Property tests for the CSV reader: bytes it did not write — garbage,
//! a valid document cut short or with one byte changed, a valid row
//! with one cell replaced — come back as records or typed errors, never
//! as a panic, and the stream always ends.

use mbw_dataset::csv::{CsvReader, CsvStreamError, CsvWriter, COLUMNS, HEADER};
use mbw_dataset::{DatasetConfig, Generator, Year};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Rows in [`document`].
const ROWS: usize = 60;

/// A valid document: the header and [`ROWS`] rows of every access kind.
fn document() -> &'static [u8] {
    static DOC: OnceLock<Vec<u8>> = OnceLock::new();
    DOC.get_or_init(|| {
        let records = Generator::new(DatasetConfig {
            seed: 0xF022,
            tests: ROWS,
            year: Year::Y2021,
            ..Default::default()
        })
        .generate();
        let mut writer = CsvWriter::new(Vec::new()).expect("header written");
        for r in &records {
            writer.write_record(r).expect("row written");
        }
        writer.into_inner().expect("flushes")
    })
}

/// Byte offset of `document`'s first row.
fn first_row() -> usize {
    HEADER.len() + 1
}

/// Read all of `bytes`: `None` when the header is refused, else how many
/// records and how many errors the stream yields. An item is a record or
/// one of the two typed errors, and a stream yields at most one item per
/// line.
fn drain(bytes: &[u8]) -> Option<(usize, usize)> {
    let reader = CsvReader::new(bytes).ok()?;
    let lines = bytes.split(|&b| b == b'\n').count();
    let (mut records, mut errors) = (0, 0);
    for (i, item) in reader.enumerate() {
        assert!(i < lines, "item {i} from {lines} lines");
        match item {
            Ok(_) => records += 1,
            Err(CsvStreamError::Parse(_) | CsvStreamError::Io(_)) => errors += 1,
        }
    }
    Some((records, errors))
}

#[test]
fn the_valid_document_reads_back_whole() {
    assert_eq!(drain(document()), Some((ROWS, 0)));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Garbage in place of a document, and garbage rows under a valid
    /// header.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..1024)) {
        drain(&bytes);
        let under_header = [HEADER.as_bytes(), b"\n", &bytes].concat();
        prop_assert!(drain(&under_header).is_some(), "a valid header was refused");
    }

    /// Every prefix of a valid document reads as its whole rows, at most
    /// one error for the row it cuts, and nothing more.
    #[test]
    fn truncations_keep_their_whole_rows(cut in 0usize..20_000) {
        let doc = document();
        let cut = cut % (doc.len() + 1);
        let prefix = &doc[..cut];
        let Some((records, errors)) = drain(prefix) else {
            prop_assert!(cut < first_row(), "cut at {cut} refused a whole header");
            return Ok(());
        };
        let whole = prefix[first_row().min(cut)..].iter().filter(|&&b| b == b'\n').count();
        prop_assert!(errors <= 1, "cut at {cut}: {errors} errors");
        prop_assert!(records >= whole && records <= whole + 1, "cut at {cut}: {records} records, {whole} whole rows");
    }

    /// One byte changed spoils at most the rows it touches: the row it
    /// lies in, or the two a changed line break joins. A byte that is not
    /// UTF-8 ends the stream with an I/O error instead.
    #[test]
    fn a_changed_byte_spoils_only_its_rows(at in 0usize..20_000, byte in any::<u8>()) {
        let doc = document();
        let at = at % doc.len();
        let mut changed = doc.to_vec();
        changed[at] = byte;
        let Some((records, errors)) = drain(&changed) else {
            prop_assert!(at < first_row(), "a change at {at} refused the header");
            return Ok(());
        };
        prop_assert!(errors <= 2, "{errors} errors from one byte at {at}");
        if byte.is_ascii() && at >= first_row() {
            prop_assert!(records + 2 >= ROWS, "{records} records left after a change at {at}");
        }
    }

    /// A valid row with one cell replaced by text: every column's parser
    /// sees foreign values, separators included.
    #[test]
    fn a_foreign_cell_is_a_row_error_at_worst(
        row in any::<proptest::sample::Index>(),
        cell in 0usize..COLUMNS,
        text in "[0-9A-Za-z.,:;\\- ]{0,12}",
    ) {
        let doc = std::str::from_utf8(document()).expect("the writer writes UTF-8");
        let rows: Vec<&str> = doc.lines().skip(1).collect();
        let mut cells: Vec<&str> = rows[row.index(rows.len())].split(',').collect();
        cells[cell] = &text;
        let forged = format!("{HEADER}\n{}\n", cells.join(","));
        prop_assert_eq!(drain(forged.as_bytes()).map(|(r, e)| r + e), Some(1));
    }
}

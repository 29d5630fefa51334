//! On-disk framing: block handles, block trailers, and the table footer.

use unikv_common::coding::{get_varint64, put_fixed64, put_varint64, try_decode_fixed64};
use unikv_common::{crc32c, Error, Result};
use unikv_env::RandomAccessFile;

/// Magic number identifying our table files (last 8 footer bytes).
pub const TABLE_MAGIC: u64 = 0x7573_6e69_6b76_7462; // "usnikvtb"

/// Magic number of a table whose footer also names a record directory
/// (the footer is then [`DIRECTORY_FOOTER_SIZE`] bytes long).
pub const DIRECTORY_TABLE_MAGIC: u64 = 0x7264_6e69_6b76_7462; // "rdnikvtb"

/// Compression type byte in each block trailer. Only raw is produced;
/// the slot exists so the format can grow compression without breaking.
pub const COMPRESSION_RAW: u8 = 0;

/// Bytes appended to each block: 1 type byte + 4 CRC bytes.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Fixed encoded footer length: two max-length varint64 handles + magic.
pub const FOOTER_SIZE: usize = 2 * 2 * 10 + 8;

/// Footer length of a table with a record directory: three max-length
/// varint64 handles + magic. Also the most footer bytes a reader needs.
pub const DIRECTORY_FOOTER_SIZE: usize = 3 * 2 * 10 + 8;

/// Pointer to a block within the table file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BlockHandle {
    /// Byte offset of the block start.
    pub offset: u64,
    /// Length of the block payload (excluding trailer).
    pub size: u64,
}

impl BlockHandle {
    /// Encode as two varint64s.
    pub fn encode_to(&self, dst: &mut Vec<u8>) {
        put_varint64(dst, self.offset);
        put_varint64(dst, self.size);
    }

    /// Decode, returning the handle and bytes consumed.
    pub fn decode_from(src: &[u8]) -> Result<(BlockHandle, usize)> {
        let (offset, n1) = get_varint64(src)?;
        let (size, n2) = get_varint64(&src[n1..])?;
        Ok((BlockHandle { offset, size }, n1 + n2))
    }
}

/// Table footer: locates the filter block (optional), the index block and
/// the record directory (optional). A table without a directory keeps the
/// original [`FOOTER_SIZE`] footer byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the filter block; `size == 0` means no filter.
    pub filter_handle: BlockHandle,
    /// Handle of the index block.
    pub index_handle: BlockHandle,
    /// Handle of the record directory block, if the table has one.
    pub directory_handle: Option<BlockHandle>,
}

impl Footer {
    /// Encode to [`FOOTER_SIZE`] bytes, or to [`DIRECTORY_FOOTER_SIZE`]
    /// bytes when the footer names a record directory.
    pub fn encode(&self) -> Vec<u8> {
        let (size, magic) = match self.directory_handle {
            None => (FOOTER_SIZE, TABLE_MAGIC),
            Some(_) => (DIRECTORY_FOOTER_SIZE, DIRECTORY_TABLE_MAGIC),
        };
        let mut v = Vec::with_capacity(size);
        self.filter_handle.encode_to(&mut v);
        self.index_handle.encode_to(&mut v);
        if let Some(h) = &self.directory_handle {
            h.encode_to(&mut v);
        }
        v.resize(size - 8, 0);
        put_fixed64(&mut v, magic);
        v
    }

    /// Decode from the final bytes of a table file: at least
    /// [`FOOTER_SIZE`] of them, and the magic number at their end says
    /// which footer they close.
    pub fn decode(src: &[u8]) -> Result<Footer> {
        if src.len() < FOOTER_SIZE {
            return Err(Error::corruption("bad footer length"));
        }
        let magic = try_decode_fixed64(&src[src.len() - 8..])?;
        let size = match magic {
            TABLE_MAGIC => FOOTER_SIZE,
            DIRECTORY_TABLE_MAGIC if src.len() >= DIRECTORY_FOOTER_SIZE => DIRECTORY_FOOTER_SIZE,
            DIRECTORY_TABLE_MAGIC => return Err(Error::corruption("bad footer length")),
            _ => return Err(Error::corruption("bad table magic")),
        };
        let src = &src[src.len() - size..];
        let (filter_handle, n1) = BlockHandle::decode_from(src)?;
        let (index_handle, n2) = BlockHandle::decode_from(&src[n1..])?;
        let directory_handle = match magic {
            DIRECTORY_TABLE_MAGIC => Some(BlockHandle::decode_from(&src[n1 + n2..])?.0),
            _ => None,
        };
        Ok(Footer {
            filter_handle,
            index_handle,
            directory_handle,
        })
    }
}

/// Read a block's payload at `handle`, verifying the trailer CRC.
pub fn read_block_payload(file: &dyn RandomAccessFile, handle: &BlockHandle) -> Result<Vec<u8>> {
    let total = handle.size as usize + BLOCK_TRAILER_SIZE;
    let mut data = file.read_at(handle.offset, total)?;
    if data.len() != total {
        return Err(Error::corruption("truncated block read"));
    }
    let payload = &data[..handle.size as usize];
    let trailer = &data[handle.size as usize..];
    let compression = trailer[0];
    if compression != COMPRESSION_RAW {
        return Err(Error::corruption(format!(
            "unsupported compression type {compression}"
        )));
    }
    let stored = u32::from_le_bytes(trailer[1..5].try_into().expect("4 bytes"));
    let actual = crc32c::extend(crc32c::value(payload), &[compression]);
    if crc32c::unmask(stored) != actual {
        return Err(Error::corruption("block checksum mismatch"));
    }
    data.truncate(handle.size as usize);
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handle_roundtrip() {
        let h = BlockHandle {
            offset: 123_456,
            size: 789,
        };
        let mut buf = Vec::new();
        h.encode_to(&mut buf);
        let (got, n) = BlockHandle::decode_from(&buf).unwrap();
        assert_eq!(got, h);
        assert_eq!(n, buf.len());
    }

    #[test]
    fn footer_roundtrip() {
        let f = Footer {
            filter_handle: BlockHandle { offset: 0, size: 0 },
            index_handle: BlockHandle {
                offset: 9000,
                size: 1234,
            },
            directory_handle: None,
        };
        let enc = f.encode();
        assert_eq!(enc.len(), FOOTER_SIZE);
        assert_eq!(Footer::decode(&enc).unwrap(), f);
        // A reader hands over the file's last DIRECTORY_FOOTER_SIZE bytes.
        let mut tail = vec![7u8; DIRECTORY_FOOTER_SIZE - FOOTER_SIZE];
        tail.extend_from_slice(&enc);
        assert_eq!(Footer::decode(&tail).unwrap(), f);

        let d = Footer {
            directory_handle: Some(BlockHandle {
                offset: u64::MAX,
                size: u64::MAX,
            }),
            ..f
        };
        let enc = d.encode();
        assert_eq!(enc.len(), DIRECTORY_FOOTER_SIZE);
        assert_eq!(Footer::decode(&enc).unwrap(), d);
        assert!(Footer::decode(&enc[enc.len() - FOOTER_SIZE..]).is_err());
    }

    #[test]
    fn footer_rejects_bad_magic() {
        let f = Footer {
            filter_handle: BlockHandle::default(),
            index_handle: BlockHandle::default(),
            directory_handle: None,
        };
        let mut enc = f.encode();
        let n = enc.len();
        enc[n - 1] ^= 1;
        assert!(Footer::decode(&enc).is_err());
        assert!(Footer::decode(&enc[..n - 1]).is_err());
    }
}

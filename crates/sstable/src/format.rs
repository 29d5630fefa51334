//! On-disk framing: block handles, block trailers, and the table footer.

use unikv_common::coding::{get_varint64, put_fixed64, put_varint64, try_decode_fixed64};
use unikv_common::{crc32c, Error, Result};
use unikv_env::RandomAccessFile;

/// Magic number identifying our table files (last 8 footer bytes).
pub const TABLE_MAGIC: u64 = 0x7573_6e69_6b76_7462; // "usnikvtb"

/// Compression type byte in each block trailer. Only raw is produced;
/// the slot exists so the format can grow compression without breaking.
pub const COMPRESSION_RAW: u8 = 0;

/// Bytes appended to each block: 1 type byte + 4 CRC bytes.
pub const BLOCK_TRAILER_SIZE: usize = 5;

/// Fixed encoded footer length: two max-length varint64 handles + magic.
pub const FOOTER_SIZE: usize = 2 * 2 * 10 + 8;

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

/// Table footer: locates the filter block (optional) and the index block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Footer {
    /// Handle of the filter block; `size == 0` means no filter.
    pub filter_handle: BlockHandle,
    /// Handle of the index block.
    pub index_handle: BlockHandle,
}

impl Footer {
    /// Encode to exactly [`FOOTER_SIZE`] bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut v = Vec::with_capacity(FOOTER_SIZE);
        self.filter_handle.encode_to(&mut v);
        self.index_handle.encode_to(&mut v);
        v.resize(FOOTER_SIZE - 8, 0);
        put_fixed64(&mut v, TABLE_MAGIC);
        v
    }

    /// Decode from the final [`FOOTER_SIZE`] bytes of a table file.
    pub fn decode(src: &[u8]) -> Result<Footer> {
        if src.len() != FOOTER_SIZE {
            return Err(Error::corruption("bad footer length"));
        }
        let magic = try_decode_fixed64(&src[FOOTER_SIZE - 8..])?;
        if magic != TABLE_MAGIC {
            return Err(Error::corruption("bad table magic"));
        }
        let (filter_handle, n1) = BlockHandle::decode_from(src)?;
        let (index_handle, _) = BlockHandle::decode_from(&src[n1..])?;
        Ok(Footer {
            filter_handle,
            index_handle,
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

/// Append a block (payload + trailer) to `out`, returning its handle.
pub fn append_block(out: &mut Vec<u8>, payload: &[u8]) -> BlockHandle {
    let handle = BlockHandle {
        offset: out.len() as u64,
        size: payload.len() as u64,
    };
    out.extend_from_slice(payload);
    let crc = crc32c::mask(crc32c::extend(crc32c::value(payload), &[COMPRESSION_RAW]));
    out.push(COMPRESSION_RAW);
    out.extend_from_slice(&crc.to_le_bytes());
    handle
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
        };
        let enc = f.encode();
        assert_eq!(enc.len(), FOOTER_SIZE);
        assert_eq!(Footer::decode(&enc).unwrap(), f);
    }

    #[test]
    fn footer_rejects_bad_magic() {
        let f = Footer {
            filter_handle: BlockHandle::default(),
            index_handle: BlockHandle::default(),
        };
        let mut enc = f.encode();
        let n = enc.len();
        enc[n - 1] ^= 1;
        assert!(Footer::decode(&enc).is_err());
        assert!(Footer::decode(&enc[..n - 1]).is_err());
    }
}

//! XNU `queue.h`-style queues.
//!
//! Mach IPC threads its message queues and psynch its waiter lists
//! through [`XnuQueue`]. XNU chains these recursively (queues holding
//! queue heads); [`XnuQueue`] is the flat form that §4.2 says the code
//! "was rewritten" into "to better fit within Linux".

use std::collections::VecDeque;

/// A flat queue with the XNU `queue.h` vocabulary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XnuQueue<T> {
    items: VecDeque<T>,
}

impl<T> Default for XnuQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> XnuQueue<T> {
    /// `queue_init`.
    pub fn new() -> XnuQueue<T> {
        XnuQueue {
            items: VecDeque::new(),
        }
    }

    /// `enqueue_tail`.
    pub fn enqueue_tail(&mut self, item: T) {
        self.items.push_back(item);
    }

    /// `enqueue_head`.
    pub fn enqueue_head(&mut self, item: T) {
        self.items.push_front(item);
    }

    /// `dequeue_head`.
    pub fn dequeue_head(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// `queue_empty`.
    pub fn queue_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Number of queued items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// `queue_iterate`.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Removes the first item matching the predicate (`remqueue`).
    pub fn remqueue<F: FnMut(&T) -> bool>(&mut self, pred: F) -> Option<T> {
        let pos = self.items.iter().position(pred)?;
        self.items.remove(pos)
    }
}

impl<T> FromIterator<T> for XnuQueue<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        XnuQueue {
            items: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_queue_fifo() {
        let mut q = XnuQueue::new();
        q.enqueue_tail(1);
        q.enqueue_tail(2);
        q.enqueue_head(0);
        assert_eq!(q.len(), 3);
        assert_eq!(q.dequeue_head(), Some(0));
        assert_eq!(q.dequeue_head(), Some(1));
        assert_eq!(q.dequeue_head(), Some(2));
        assert!(q.queue_empty());
    }

    #[test]
    fn remqueue_removes_matching() {
        let mut q: XnuQueue<i32> = [1, 2, 3, 4].into_iter().collect();
        assert_eq!(q.remqueue(|&x| x == 3), Some(3));
        assert_eq!(q.remqueue(|&x| x == 3), None);
        assert_eq!(q.len(), 3);
    }
}
